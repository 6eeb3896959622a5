package core

import (
	"testing"
	"testing/quick"

	"runaheadsim/internal/isa"
)

// --- Runahead cache (Table 1: 512B, 4-way, 8B lines) -----------------------

func TestRACacheReadWrite(t *testing.T) {
	c := newRACache(512, 4, 8)
	if _, _, hit := c.Read(0x1000); hit {
		t.Fatal("empty runahead cache must miss")
	}
	c.Write(0x1000, 42, false)
	v, pois, hit := c.Read(0x1000)
	if !hit || pois || v != 42 {
		t.Fatalf("read = %d,%v,%v", v, pois, hit)
	}
	if c.Writes != 1 || c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("stats = %d/%d/%d", c.Writes, c.Hits, c.Misses)
	}
}

func TestRACachePoisonForwarding(t *testing.T) {
	c := newRACache(512, 4, 8)
	c.Write(0x2000, 7, true)
	_, pois, hit := c.Read(0x2000)
	if !hit || !pois {
		t.Fatal("poisoned store data must forward as poisoned")
	}
	// Overwrite with clean data clears the poison.
	c.Write(0x2000, 8, false)
	v, pois, _ := c.Read(0x2000)
	if pois || v != 8 {
		t.Fatal("clean overwrite must clear poison")
	}
}

func TestRACacheLRUWithinSet(t *testing.T) {
	c := newRACache(512, 4, 8) // 16 sets; same set every 128 bytes
	addrs := []uint64{0, 128, 256, 384}
	for i, a := range addrs {
		c.Write(a, int64(i), false)
	}
	c.Read(0) // refresh the oldest
	c.Write(512, 99, false)
	if _, _, hit := c.Read(0); !hit {
		t.Fatal("recently-read line should have survived")
	}
	if _, _, hit := c.Read(128); hit {
		t.Fatal("LRU line should have been evicted")
	}
}

func TestRACacheReset(t *testing.T) {
	c := newRACache(512, 4, 8)
	c.Write(0x3000, 1, false)
	c.Reset()
	if _, _, hit := c.Read(0x3000); hit {
		t.Fatal("reset must invalidate everything")
	}
}

func TestRACacheBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry must panic")
		}
	}()
	newRACache(500, 4, 8)
}

// Property: after writing distinct 8-byte-aligned addresses within one set's
// associativity, every written value reads back.
func TestRACacheProperty(t *testing.T) {
	f := func(vals [4]int64) bool {
		c := newRACache(512, 4, 8)
		for i, v := range vals {
			c.Write(uint64(i)*128, v, false) // all in set 0, 4 ways
		}
		for i, v := range vals {
			got, _, hit := c.Read(uint64(i) * 128)
			if !hit || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- Chain cache (Section 4.4) ---------------------------------------------

func mkChain(pc uint64, n int) Chain {
	ch := Chain{BlockingPC: pc}
	for i := 0; i < n; i++ {
		ch.Uops = append(ch.Uops, ChainUop{U: isa.Uop{Op: isa.ADDI, Dst: 1, Src1: 1, Imm: int64(i)}, PC: pc + uint64(i*8)})
	}
	ch.Signature = chainSignature(ch.Uops)
	return ch
}

func TestChainCacheHitMiss(t *testing.T) {
	cc := newChainCache(2, 16)
	if _, ok := cc.Lookup(0x100); ok {
		t.Fatal("empty chain cache must miss")
	}
	cc.Insert(mkChain(0x100, 5))
	got, ok := cc.Lookup(0x100)
	if !ok || got.Len() != 5 || got.BlockingPC != 0x100 {
		t.Fatalf("lookup = %+v, %v", got, ok)
	}
	if cc.HitCount != 1 || cc.MissCount != 1 {
		t.Fatalf("hit/miss = %d/%d", cc.HitCount, cc.MissCount)
	}
	if cc.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", cc.HitRate())
	}
}

func TestChainCacheOneChainPerPC(t *testing.T) {
	cc := newChainCache(2, 16)
	cc.Insert(mkChain(0x100, 5))
	cc.Insert(mkChain(0x100, 9)) // replaces, no path associativity
	got, ok := cc.Lookup(0x100)
	if !ok || got.Len() != 9 {
		t.Fatal("second insert for the same PC must replace the first")
	}
	// Only one entry consumed: another PC still fits.
	cc.Insert(mkChain(0x200, 3))
	if _, ok := cc.Lookup(0x100); !ok {
		t.Fatal("first PC evicted despite free entry")
	}
}

func TestChainCacheLRUReplacement(t *testing.T) {
	cc := newChainCache(2, 16)
	cc.Insert(mkChain(0x100, 1))
	cc.Insert(mkChain(0x200, 1))
	cc.Lookup(0x100) // 0x200 becomes LRU
	cc.Insert(mkChain(0x300, 1))
	if _, ok := cc.Lookup(0x200); ok {
		t.Fatal("LRU entry should have been replaced")
	}
	if _, ok := cc.Lookup(0x100); !ok {
		t.Fatal("MRU entry should have survived")
	}
}

func TestChainSignature(t *testing.T) {
	a := mkChain(0x100, 5)
	b := mkChain(0x100, 5)
	if a.Signature != b.Signature {
		t.Fatal("identical chains must have identical signatures")
	}
	c := mkChain(0x100, 6)
	if a.Signature == c.Signature {
		t.Fatal("different chains should differ in signature")
	}
	// Order matters: reversing the uops changes the signature.
	rev := a
	rev.Uops = append([]ChainUop(nil), a.Uops...)
	for i, j := 0, len(rev.Uops)-1; i < j; i, j = i+1, j-1 {
		rev.Uops[i], rev.Uops[j] = rev.Uops[j], rev.Uops[i]
	}
	if chainSignature(rev.Uops) == a.Signature {
		t.Fatal("signature must be order-sensitive")
	}
}

func TestChainCachePanicsOnZeroEntries(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-entry chain cache must panic")
		}
	}()
	newChainCache(0, 16)
}

// --- ROB ring ---------------------------------------------------------------

func TestROBOrdering(t *testing.T) {
	r := newROB(4)
	u := &isa.Uop{Op: isa.NOP}
	for i := 1; i <= 4; i++ {
		r.push(&DynInst{Seq: uint64(i), U: u})
	}
	if !r.full() {
		t.Fatal("should be full")
	}
	if r.at(0).Seq != 1 || r.at(3).Seq != 4 {
		t.Fatal("at() must index from the oldest")
	}
	if got := r.popHead(); got.Seq != 1 {
		t.Fatalf("popHead = %d", got.Seq)
	}
	if got := r.popTail(); got.Seq != 4 {
		t.Fatalf("popTail = %d", got.Seq)
	}
	if r.size() != 2 {
		t.Fatalf("size = %d", r.size())
	}
	// Wrap-around: push two more.
	r.push(&DynInst{Seq: 5, U: u})
	r.push(&DynInst{Seq: 6, U: u})
	want := []uint64{2, 3, 5, 6}
	for i, w := range want {
		if r.at(i).Seq != w {
			t.Fatalf("after wrap, at(%d) = %d, want %d", i, r.at(i).Seq, w)
		}
	}
}

func TestROBOverflowPanics(t *testing.T) {
	r := newROB(1)
	r.push(&DynInst{Seq: 1, U: &isa.Uop{}})
	defer func() {
		if recover() == nil {
			t.Fatal("overflow must panic")
		}
	}()
	r.push(&DynInst{Seq: 2, U: &isa.Uop{}})
}

func TestROBUnderflowPanics(t *testing.T) {
	r := newROB(1)
	defer func() {
		if recover() == nil {
			t.Fatal("underflow must panic")
		}
	}()
	r.popHead()
}

// Property: any sequence of pushes and head-pops preserves FIFO order.
func TestROBFIFOProperty(t *testing.T) {
	f := func(ops []bool) bool {
		r := newROB(16)
		u := &isa.Uop{}
		next, expect := uint64(1), uint64(1)
		for _, push := range ops {
			if push {
				if r.full() {
					continue
				}
				r.push(&DynInst{Seq: next, U: u})
				next++
			} else {
				if r.empty() {
					continue
				}
				if r.popHead().Seq != expect {
					return false
				}
				expect++
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- Renamer -----------------------------------------------------------------

func TestRenamerAllocRelease(t *testing.T) {
	r := newRenamer(96) // 64 arch + 32 rename
	if !r.haveFree() {
		t.Fatal("fresh renamer must have free registers")
	}
	seen := map[PhysReg]bool{}
	for i := 0; i < 32; i++ {
		p := r.alloc()
		if p < isa.NumArchRegs || int(p) >= 96 {
			t.Fatalf("allocated out-of-range register %d", p)
		}
		if seen[p] {
			t.Fatalf("register %d allocated twice", p)
		}
		seen[p] = true
	}
	if r.haveFree() {
		t.Fatal("all rename registers allocated; none should be free")
	}
	r.release(PhysReg(64))
	if !r.haveFree() {
		t.Fatal("released register must be reusable")
	}
	if got := r.alloc(); got != 64 {
		t.Fatalf("realloc = %d, want 64", got)
	}
}

func TestRenamerAllocEmptyPanics(t *testing.T) {
	r := newRenamer(65) // one rename register
	r.alloc()
	defer func() {
		if recover() == nil {
			t.Fatal("alloc on empty free list must panic")
		}
	}()
	r.alloc()
}

func TestRenamerReset(t *testing.T) {
	r := newRenamer(96)
	r.rat[3] = r.alloc()
	r.reset(96)
	for i := range r.rat {
		if r.rat[i] != PhysReg(i) {
			t.Fatalf("rat[%d] = %d after reset", i, r.rat[i])
		}
	}
	if len(r.free) != 96-isa.NumArchRegs {
		t.Fatalf("free list has %d entries after reset", len(r.free))
	}
}

// --- Mode --------------------------------------------------------------------

func TestModeString(t *testing.T) {
	cases := map[Mode]string{
		ModeNone:        "baseline",
		ModeTraditional: "runahead",
		ModeBuffer:      "runahead-buffer",
		ModeBufferCC:    "runahead-buffer+cc",
		ModeHybrid:      "hybrid",
		ModeAdaptive:    "adaptive-hybrid",
		Mode(99):        "unknown",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("Mode(%d).String() = %q, want %q", m, m.String(), want)
		}
	}
	for m := ModeNone; m <= ModeAdaptive; m++ {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, name := range []string{"unknown", "", "Hybrid", "adaptive"} {
		if _, err := ParseMode(name); err == nil {
			t.Errorf("ParseMode(%q) accepted an unknown mode name", name)
		}
	}
	for _, m := range []Mode{ModeBuffer, ModeBufferCC, ModeHybrid} {
		if !m.UsesBuffer() {
			t.Errorf("%v should use the buffer", m)
		}
	}
	for _, m := range []Mode{ModeNone, ModeTraditional} {
		if m.UsesBuffer() {
			t.Errorf("%v should not use the buffer", m)
		}
	}
}
