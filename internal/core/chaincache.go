package core

import (
	"fmt"

	"runaheadsim/internal/isa"
)

// ChainUop is one operation of a dependence chain: the decoded uop plus the
// PC it came from (the runahead buffer stores decoded uops; PCs identify
// them for statistics and signatures).
type ChainUop struct {
	U     isa.Uop
	PC    uint64
	Index int
}

// Chain is a filtered dependence chain in program order — the contents of
// the runahead buffer for one interval.
type Chain struct {
	BlockingPC uint64
	Uops       []ChainUop
	Signature  uint64
}

// Len returns the chain length in uops.
func (ch *Chain) Len() int { return len(ch.Uops) }

// signature hashes the chain's PCs in order (FNV-1a) so chains can be
// compared cheaply (Figure 4's unique/repeated classification, Figure 13's
// exact-match check).
func chainSignature(uops []ChainUop) uint64 {
	h := uint64(1469598103934665603)
	for _, cu := range uops {
		h ^= cu.PC
		h *= 1099511628211
	}
	return h
}

// chainCache is the dependence chain cache of Section 4.4: a very small,
// fully-associative cache indexed by the PC of the operation blocking the
// ROB, holding one chain per PC (no path associativity), LRU-replaced. It is
// deliberately small so stale chains age out.
type chainCache struct {
	entries []chainCacheEntry
	stamp   uint64

	HitCount, MissCount uint64
}

// chainCacheEntry is one cached chain. Its Uops storage is fixed at
// construction (maxLen uops) and overwritten in place by Insert.
type chainCacheEntry struct {
	valid   bool
	pc      uint64
	chain   Chain
	lastUse uint64
}

func newChainCache(entries, maxLen int) *chainCache {
	if entries <= 0 {
		panic("core: chain cache needs at least one entry")
	}
	cc := &chainCache{entries: make([]chainCacheEntry, entries)}
	store := make([]ChainUop, entries*maxLen)
	for i := range cc.entries {
		cc.entries[i].chain.Uops = store[i*maxLen : i*maxLen : (i+1)*maxLen]
	}
	return cc
}

// Lookup returns the cached chain for the blocking PC.
func (cc *chainCache) Lookup(pc uint64) (*Chain, bool) {
	for i := range cc.entries {
		e := &cc.entries[i]
		if e.valid && e.pc == pc {
			cc.stamp++
			e.lastUse = cc.stamp
			cc.HitCount++
			return &e.chain, true
		}
	}
	cc.MissCount++
	return nil, false
}

// Insert copies a freshly generated chain into the entry's own storage,
// replacing any existing chain for the same PC (one chain per PC) or the
// LRU entry. The entry keeps nothing of ch, so ch's storage may be reused.
func (cc *chainCache) Insert(ch Chain) {
	vi := 0
	for i := range cc.entries {
		e := &cc.entries[i]
		if e.valid && e.pc == ch.BlockingPC {
			vi = i
			goto fill
		}
		if !e.valid {
			vi = i
		} else if cc.entries[vi].valid && e.lastUse < cc.entries[vi].lastUse {
			vi = i
		}
	}
fill:
	cc.stamp++
	e := &cc.entries[vi]
	e.valid, e.pc, e.lastUse = true, ch.BlockingPC, cc.stamp
	e.chain.BlockingPC, e.chain.Signature = ch.BlockingPC, ch.Signature
	e.chain.Uops = append(e.chain.Uops[:0], ch.Uops...)
}

// HitRate returns hits/(hits+misses).
func (cc *chainCache) HitRate() float64 {
	t := cc.HitCount + cc.MissCount
	if t == 0 {
		return 0
	}
	return float64(cc.HitCount) / float64(t)
}

// String renders the chain in the style of Figure 7, one uop per line with
// its PC.
func (ch *Chain) String() string {
	s := fmt.Sprintf("chain for blocking PC %#x (%d uops, sig %#x):\n", ch.BlockingPC, ch.Len(), ch.Signature)
	for _, cu := range ch.Uops {
		s += fmt.Sprintf("  %#x: %v\n", cu.PC, &cu.U)
	}
	return s
}

// CachedChains returns copies of the chains currently resident in the chain
// cache, oldest first (for inspection tools). The copies own their uops: the
// entries' storage is overwritten in place by later inserts.
func (cc *chainCache) CachedChains() []Chain {
	var out []Chain
	for _, e := range cc.entries {
		if e.valid {
			ch := e.chain
			ch.Uops = append([]ChainUop(nil), e.chain.Uops...)
			out = append(out, ch)
		}
	}
	return out
}
