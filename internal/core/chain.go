package core

import "runaheadsim/internal/isa"

// generateChain implements Algorithm 1: the pseudo-wakeup walk that filters
// the dependence chain of a cache miss out of the reorder buffer.
//
// match is a dynamic instance of the blocking load found by the PC CAM.
// The walk maintains a source-register search list (bounded at SRSLSize);
// each dequeued register searches the ROB's destination-register CAM for the
// youngest older producer. Producing loads additionally search the store
// queue by address so spill/fill pairs pull the store (and its sources) into
// the chain. Membership is tracked with a bit vector over ROB positions; the
// final chain is read out in program order into dst, whose storage is
// reused. The bit vector and the search list live in the core's chainGen
// scratch, so the walk allocates nothing.
//
// It returns the chain (dst, or nil only if match is nil), the number of
// destination-CAM searches performed (for timing and energy), and whether
// the walk was truncated by the MaxChainLength cap.
//
//simlint:hotpath
func (c *Core) generateChain(match *DynInst, dst *Chain) (ch *Chain, searches int, truncated bool) {
	if match == nil {
		return nil, 0, false
	}
	n := c.rob.size()
	g := &c.chainGen
	inChain := g.inChain[:n]
	clear(inChain)
	matchIdx := c.robIndexOf(match)
	if matchIdx < 0 || matchIdx >= n {
		return nil, 0, false
	}
	inChain[matchIdx] = true
	chainLen := 1

	g.srsl.reset()
	g.enqueue(match, matchIdx)

	for g.srsl.n > 0 && chainLen < c.cfg.MaxChainLength {
		w := g.srsl.pop()
		searches++
		c.st.DestCAMSearches++
		// Youngest producer older than the consumer.
		prodIdx := -1
		for i := w.consumer - 1; i >= 0; i-- {
			e := c.rob.at(i)
			if e.U.Dst != isa.RegNone && e.U.Dst == w.reg {
				prodIdx = i
				break
			}
		}
		if prodIdx < 0 {
			continue // value comes from before the window (architectural)
		}
		if inChain[prodIdx] {
			continue
		}
		p := c.rob.at(prodIdx)
		if p.U.Op.IsBranch() {
			continue // control ops are never part of the chain (Figure 7)
		}
		inChain[prodIdx] = true
		chainLen++
		g.enqueue(p, prodIdx)

		// Register fills: a producing load may take its value from an older
		// store in the window (common for x86 spill/fill traffic).
		if p.U.Op.IsLoad() && p.EAValid && chainLen < c.cfg.MaxChainLength {
			c.st.SQCAMSearches++
			for i := prodIdx - 1; i >= 0; i-- {
				s := c.rob.at(i)
				if !s.U.Op.IsStore() || !s.EAValid || !overlaps(s.EA, p.EA) {
					continue
				}
				if !inChain[i] {
					inChain[i] = true
					chainLen++
					g.enqueue(s, i)
				}
				break
			}
		}
	}
	truncated = g.srsl.n > 0 || chainLen >= c.cfg.MaxChainLength

	// Read the chain out of the ROB in program order.
	dst.BlockingPC = match.PC
	dst.Uops = dst.Uops[:0]
	for i := 0; i < n; i++ {
		if !inChain[i] {
			continue
		}
		e := c.rob.at(i)
		dst.Uops = append(dst.Uops, ChainUop{U: *e.U, PC: e.PC, Index: e.Index})
		c.st.ROBChainReads++
	}
	dst.Signature = chainSignature(dst.Uops)
	return dst, searches, truncated
}

// chainGen is the core-owned scratch chain generation reuses on every
// runahead entry: the membership bit vector over ROB positions, the source
// register search list, and the two chains the walk reads out into — fresh
// for the chain the interval runs, check for the Figure 13 comparison
// against a chain-cache hit. Chain storage is sized to MaxChainLength, which
// bounds every chain.
type chainGen struct {
	inChain      []bool
	srsl         srslRing
	regs         [2]isa.Reg // SrcRegs buffer for enqueue
	fresh, check Chain
}

func newChainGen(cfg Config) chainGen {
	return chainGen{
		inChain: make([]bool, cfg.ROBSize),
		srsl:    srslRing{buf: make([]srslEntry, cfg.SRSLSize)},
		fresh:   Chain{Uops: make([]ChainUop, 0, cfg.MaxChainLength)},
		check:   Chain{Uops: make([]ChainUop, 0, cfg.MaxChainLength)},
	}
}

// enqueue appends d's source registers to the search list, dropping what
// does not fit in the bounded hardware list.
func (g *chainGen) enqueue(d *DynInst, idx int) {
	for _, r := range d.U.SrcRegs(g.regs[:0]) {
		if !g.srsl.push(srslEntry{reg: r, consumer: idx}) {
			return
		}
	}
}

// srslEntry is one source register awaiting its producer search.
type srslEntry struct {
	reg      isa.Reg
	consumer int // ROB index of the consuming op; search strictly older
}

// srslRing is the source-register search list: a FIFO bounded at
// SRSLSize entries.
type srslRing struct {
	buf     []srslEntry
	head, n int
}

func (q *srslRing) reset() { q.head, q.n = 0, 0 }

// push appends e, reporting false when the list is full.
func (q *srslRing) push(e srslEntry) bool {
	if q.n == len(q.buf) {
		return false
	}
	q.buf[(q.head+q.n)%len(q.buf)] = e
	q.n++
	return true
}

func (q *srslRing) pop() srslEntry {
	e := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return e
}
