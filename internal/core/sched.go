package core

// Event-driven wakeup/select scheduler. The seed kernel re-scanned the whole
// ROB every cycle looking for ready uops (O(ROB) per cycle) and walked every
// older store per load issue attempt (O(ROB²) per cycle in the worst case) —
// exactly the wrong shape for a machine whose point is keeping a 192-entry
// window full of in-flight misses. This file replaces both scans:
//
//   - Wakeup: each physical register keeps a waiter list. A uop dispatched
//     with unready sources registers once per unready source and carries a
//     pending-source count; the completion broadcast that sets the register's
//     ready (or poison) bit walks the list, decrements each waiter, and moves
//     uops whose count hits zero into the ready queue. Uops whose sources are
//     all ready at dispatch enter the queue immediately.
//
//   - Select: the ready queue is a min-heap keyed by sequence number, so
//     popping yields exactly the oldest-first order the ROB scan produced.
//     Issue pops until IssueWidth is consumed; memory uops that lose a port
//     or fail disambiguation are set aside on a parked list, reproducing the
//     scan's "skip and retry next cycle" behavior. Because pops happen in
//     seq order, the parked list is itself seq-sorted, so the next cycle
//     merges it with the heap instead of re-pushing every blocked uop —
//     a window full of disambiguation-blocked loads costs O(N) comparisons
//     per cycle, not O(N log N) heap churn.
//
//   - Store-address index: in-window stores with computed addresses are
//     indexed by 8-byte address bucket, and stores whose address is still
//     unknown sit in a seq-ordered heap. loadCanIssue consults the oldest
//     unknown-address store and at most three buckets instead of walking the
//     window; the same index serves store-to-load forwarding in execLoad.
//
// Squash and runahead exit never search these structures: entries are
// invalidated lazily (a popped or woken uop that is squashed, issued, or
// executed is skipped and dropped), and the wholesale runahead flush clears
// everything. At quiescence (Drain) the structures hold only dead entries,
// so snapshots need no scheduler state: a restored core rebuilds them empty,
// which is exactly their canonical drained form.
//
// Config.Scheduler selects between this scheduler (SchedEvent, the default)
// and the preserved reference scan (SchedScan). The two must pick identical
// uop sequences cycle-by-cycle; TestSchedulerLockstep,
// TestSchedulerLockstepMemoryBound and FuzzEquivalence enforce it.

// schedRef is a lazy reference to a uop held in the wakeup/select structures.
// DynInst slots are pooled (Core.newDyn), so a reference that is dropped
// lazily can outlive the uop it was created for; gen is the slot's pool
// generation at capture, and a mismatch marks the reference dead. seq is
// captured too — it is the heap key, and a key must stay immutable even after
// the slot is recycled for a younger uop or heap order silently breaks.
type schedRef struct {
	d   *DynInst
	gen uint64
	seq uint64
}

func mkref(d *DynInst) schedRef { return schedRef{d: d, gen: d.gen, seq: d.Seq} }

// stale reports that the reference is dead: the slot was recycled, or the uop
// left the machine or already went through issue.
func (r schedRef) stale() bool { return r.d.gen != r.gen || schedStale(r.d) }

// issueSched is the scheduler state embedded in Core.
type issueSched struct {
	readyQ   readyHeap    // ready, unissued uops, keyed by captured seq
	parked   []schedRef   // seq-sorted: uops popped earlier but port/disambiguation-blocked
	deferred []schedRef   // scratch for building next cycle's parked list
	waiters  [][]schedRef // per physical register: uops waiting on its broadcast

	unknownStores seqHeap               // in-window stores with no computed address, keyed by captured seq
	storeIdx      map[uint64][]*DynInst // in-window EAValid stores by EA>>3 bucket (maintained eagerly)
	bucketPool    [][]*DynInst          // recycled bucket backing arrays (see dropStore)
}

func newIssueSched(numPhys int) issueSched {
	return issueSched{
		waiters:  make([][]schedRef, numPhys),
		storeIdx: make(map[uint64][]*DynInst),
	}
}

// clear drops every entry — the wholesale runahead-exit flush and the
// drained-core normalization. The waiter lists are truncated in place so
// their backing arrays stay warm.
func (s *issueSched) clear() {
	s.readyQ = s.readyQ[:0]
	s.parked = s.parked[:0]
	s.deferred = s.deferred[:0]
	for i := range s.waiters {
		s.waiters[i] = s.waiters[i][:0]
	}
	s.unknownStores = s.unknownStores[:0]
	//simlint:allow determinism -- pool refill order never affects simulated state
	for _, bucket := range s.storeIdx {
		for i := range bucket {
			bucket[i] = nil
		}
		s.bucketPool = append(s.bucketPool, bucket[:0])
	}
	clear(s.storeIdx)
}

// schedStale reports that a uop's scheduler entry is dead: it left the
// machine or already went through issue. Entries are dropped lazily when
// popped or woken.
func schedStale(d *DynInst) bool {
	return d.Squashed || d.Issued || d.Executed
}

// enroll registers a freshly dispatched uop: count its unready sources onto
// the per-register waiter lists, or queue it as ready immediately. A source
// counts as ready when free, ready, or poisoned (poison propagates at
// execute, so it satisfies wakeup just like a value). Under SchedScan the
// scan finds ready uops itself and the wakeup structures stay empty.
//
//simlint:hotpath
func (c *Core) enroll(d *DynInst) {
	if c.cfg.Scheduler == SchedScan {
		return
	}
	r := mkref(d)
	if d.U.Op.IsStore() {
		c.sched.unknownStores.push(r)
	}
	pending := int8(0)
	if !c.srcReady(d.PSrc1) {
		pending++
		c.sched.waiters[d.PSrc1] = append(c.sched.waiters[d.PSrc1], r)
	}
	if !c.srcReady(d.PSrc2) {
		pending++
		c.sched.waiters[d.PSrc2] = append(c.sched.waiters[d.PSrc2], r)
	}
	d.pendingSrcs = pending
	if pending == 0 {
		c.sched.readyQ.push(r)
	}
}

// broadcast wakes the waiters of physical register p after its ready (or
// poison) bit is set. Each waiter appears once per formerly-unready source,
// so decrementing per list entry is exact even when both sources name p.
//
//simlint:hotpath
func (c *Core) broadcast(p PhysReg) {
	if c.cfg.Scheduler == SchedScan || p == noPhys {
		return
	}
	ws := c.sched.waiters[p]
	if len(ws) == 0 {
		return
	}
	c.prof.schedBroadcasts++
	c.prof.schedWakeups += uint64(len(ws))
	c.sched.waiters[p] = ws[:0]
	for _, w := range ws {
		if w.stale() {
			continue
		}
		if w.d.pendingSrcs--; w.d.pendingSrcs == 0 {
			c.sched.readyQ.push(w)
		}
	}
}

// noteStoreAddr moves a store from the unknown-address set into the address
// index once its effective address is computed. The unknown-store heap drops
// it lazily (EAValid entries are skipped at peek). Index maintenance runs
// under both schedulers: execLoad's forwarding lookup uses it whenever the
// event scheduler is selected, including during runahead.
func (c *Core) noteStoreAddr(d *DynInst) {
	if c.cfg.Scheduler == SchedScan {
		return
	}
	b := d.EA >> 3
	bucket, ok := c.sched.storeIdx[b]
	if !ok {
		// Fresh bucket: reuse a recycled backing array. Buckets are deleted
		// when their last store leaves (dropStore), so without the pool a
		// streaming workload allocates one slice per store lifetime.
		if n := len(c.sched.bucketPool); n > 0 {
			bucket = c.sched.bucketPool[n-1]
			c.sched.bucketPool[n-1] = nil
			c.sched.bucketPool = c.sched.bucketPool[:n-1]
		}
	}
	c.sched.storeIdx[b] = append(bucket, d)
}

// dropStore removes a store from the address index when it leaves the window
// (commit, pseudo-retire, or squash). Buckets hold the handful of in-window
// stores that share an 8-byte granule, so the scan is short.
func (c *Core) dropStore(d *DynInst) {
	if c.cfg.Scheduler == SchedScan || !d.EAValid {
		return
	}
	b := d.EA >> 3
	bucket := c.sched.storeIdx[b]
	for i, s := range bucket {
		if s == d {
			bucket[i] = bucket[len(bucket)-1]
			bucket[len(bucket)-1] = nil
			bucket = bucket[:len(bucket)-1]
			break
		}
	}
	if len(bucket) == 0 {
		delete(c.sched.storeIdx, b)
		if cap(bucket) > 0 {
			c.sched.bucketPool = append(c.sched.bucketPool, bucket)
		}
	} else {
		c.sched.storeIdx[b] = bucket
	}
}

// oldestUnknownStoreSeq returns the sequence number of the oldest in-window
// store whose address is still unknown, or ^uint64(0) when every store has
// one. Stale heads (recycled slots and squashed, poisoned, or
// address-computed stores) are popped permanently: a gen mismatch is final,
// and the three flags are monotonic for a store's lifetime in the window.
func (c *Core) oldestUnknownStoreSeq() uint64 {
	h := &c.sched.unknownStores
	for h.len() > 0 {
		r := h.peek()
		if r.d.gen != r.gen || r.d.Squashed || r.d.Poisoned || r.d.EAValid {
			h.pop()
			continue
		}
		return r.seq
	}
	return ^uint64(0)
}

// overlapBuckets yields the at most three address buckets a load at ea can
// overlap ([ea-7, ea+7] spans at most three 8-byte granules). Wrapping
// arithmetic matches overlaps(), which also compares with wraparound.
func overlapBuckets(ea uint64) [3]uint64 {
	return [3]uint64{(ea - 7) >> 3, ea >> 3, (ea + 7) >> 3}
}

// forwardingStore returns the youngest older EAValid store overlapping the
// load — the indexed equivalent of execLoad's backward window walk.
func (c *Core) forwardingStore(d *DynInst) *DynInst {
	var best *DynInst
	bs := overlapBuckets(d.EA)
	for i, b := range bs {
		if (i > 0 && b == bs[0]) || (i > 1 && b == bs[1]) {
			continue
		}
		for _, s := range c.sched.storeIdx[b] {
			if s.Seq < d.Seq && overlaps(s.EA, d.EA) && (best == nil || s.Seq > best.Seq) {
				best = s
			}
		}
	}
	return best
}

// issueStageEvent selects up to IssueWidth ready uops, oldest first, bounded
// by data-cache ports — the event-driven replacement for the ROB scan.
// Candidates come from two seq-sorted sources merged on the fly: the parked
// list (uops blocked on a port or disambiguation in an earlier cycle) and the
// ready heap (fresh wakeups). The merge emits exactly the oldest-first order
// a single heap produced, including same-cycle wakeups: a uop completed
// during this loop (poison propagation) broadcasts into the heap and, being
// younger than its producer, is reached in the same relative order the
// forward scan used. Blocked uops land on the deferred scratch in emission
// (= seq) order, and entries the width cut-off never reached follow them —
// still sorted, because everything emitted precedes everything unexamined —
// so the scratch becomes the next cycle's parked list with no heap re-insert.
//
//simlint:hotpath
func (c *Core) issueStageEvent() {
	issued, memIssued := 0, 0
	s := &c.sched
	c.prof.schedSelects++
	c.prof.schedQueueSum += uint64(len(s.readyQ) + len(s.parked))
	def := s.deferred[:0]
	pi := 0
	for issued < c.cfg.IssueWidth {
		var r schedRef
		switch {
		case pi < len(s.parked) && (len(s.readyQ) == 0 || s.parked[pi].seq < s.readyQ[0].seq):
			r = s.parked[pi]
			s.parked[pi] = schedRef{}
			pi++
		case len(s.readyQ) > 0:
			r = s.readyQ.pop()
		default:
			pi = len(s.parked)
		}
		if r.d == nil {
			break
		}
		d := r.d
		if r.stale() || !d.Renamed {
			continue
		}
		if d.U.Op.IsMem() {
			if memIssued >= c.cfg.MemPorts {
				def = append(def, r)
				continue
			}
			if d.U.Op.IsLoad() && !c.loadCanIssueEvent(d) {
				def = append(def, r)
				continue
			}
		}
		c.issue(d)
		issued++
		if d.U.Op.IsMem() {
			memIssued++
		}
	}
	def = append(def, s.parked[pi:]...)
	s.parked, s.deferred = def, s.parked[:0]
}

// loadCanIssueEvent is the indexed form of the loadCanIssue walk: consult
// the oldest unknown-address store and at most three address buckets instead
// of every older store in the window. Semantics are identical to the scan
// reference, including the conservative unknown-EA wait.
func (c *Core) loadCanIssueEvent(d *DynInst) bool {
	if c.ra.active {
		return true
	}
	ea, ok := d.predictedEA(c)
	if !ok {
		// The load's own address is unknowable (poisoned sources): wait
		// rather than disambiguate against a fabricated address.
		return false
	}
	if c.oldestUnknownStoreSeq() < d.Seq {
		return false
	}
	bs := overlapBuckets(ea)
	for i, b := range bs {
		if (i > 0 && b == bs[0]) || (i > 1 && b == bs[1]) {
			continue
		}
		for _, s := range c.sched.storeIdx[b] {
			if s.Seq < d.Seq && !s.Poisoned && overlaps(s.EA, ea) && !s.Executed {
				return false
			}
		}
	}
	return true
}

// readyHeap is a min-heap of schedRefs keyed by captured sequence number:
// pop order is the ROB scan's oldest-first order. Hand-rolled (not
// container/heap) to keep push/pop free of interface conversions on the hot
// path.
type readyHeap []schedRef

func (h *readyHeap) push(r schedRef) {
	*h = append(*h, r)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].seq <= q[i].seq {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
}

func (h *readyHeap) pop() schedRef {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = schedRef{}
	q = q[:last]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(q) && q[l].seq < q[min].seq {
			min = l
		}
		if r < len(q) && q[r].seq < q[min].seq {
			min = r
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}

// seqHeap is the same min-heap shape used for unknown-address stores.
type seqHeap []schedRef

func (h *seqHeap) len() int        { return len(*h) }
func (h *seqHeap) peek() schedRef  { return (*h)[0] }
func (h *seqHeap) push(r schedRef) { (*readyHeap)(h).push(r) }
func (h *seqHeap) pop() schedRef   { return (*readyHeap)(h).pop() }
