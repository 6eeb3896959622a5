package memsys

import (
	"fmt"
	"testing"

	"runaheadsim/internal/dram"
)

// TestNextEventIdle: a hierarchy with nothing in flight reports Never, and
// a single load lowers the horizon to its first hop.
func TestNextEventIdle(t *testing.T) {
	h := New(DefaultConfig())
	h.Tick(0)
	if ne := h.NextEvent(); ne != Never {
		t.Fatalf("idle hierarchy NextEvent = %d, want Never", ne)
	}
	load(h, 0, 0x1000, false, nil, func(Outcome) {})
	ne := h.NextEvent()
	if ne != int64(h.cfg.L1Latency) {
		t.Fatalf("NextEvent after a cold load = %d, want the L1 tag-check hop at %d", ne, h.cfg.L1Latency)
	}
}

// TestNextEventDrivenMatchesPerCycle is the hierarchy-level soundness
// property for the clock warp: ticking only at the cycles NextEvent names
// must complete every access at exactly the cycle and level the per-cycle
// reference produces, with identical hierarchy statistics.
func TestNextEventDrivenMatchesPerCycle(t *testing.T) {
	// Distinct lines (DRAM misses), plus re-touches that merge into MSHRs.
	addrs := []uint64{0x10000, 0x20040, 0x30080, 0x400c0, 0x10000, 0x51100, 0x62240}

	type result struct {
		when  int64
		level Level
	}
	run := func(eventDriven bool) ([]result, *Hierarchy, int64) {
		h := New(DefaultConfig())
		got := make([]result, len(addrs))
		pending := len(addrs)
		for i, a := range addrs {
			i := i
			if !load(h, 0, a, false, nil, func(o Outcome) {
				got[i] = result{o.When, o.Level}
				pending--
			}) {
				t.Fatal("load rejected in test setup")
			}
		}
		now := int64(0)
		for now < 100_000 && pending > 0 {
			if eventDriven {
				ne := h.NextEvent()
				if ne == Never {
					t.Fatalf("NextEvent = Never with %d loads outstanding", pending)
				}
				if ne <= now {
					t.Fatalf("NextEvent(%d) = %d did not advance", now, ne)
				}
				now = ne
			} else {
				now++
			}
			h.Tick(now)
			if err := h.CheckInvariants(true); err != nil {
				t.Fatalf("cycle %d: %v", now, err)
			}
		}
		if pending > 0 {
			t.Fatal("loads never completed")
		}
		return got, h, now
	}

	ref, refH, _ := run(false)
	evt, evtH, _ := run(true)
	for i := range ref {
		if ref[i] != evt[i] {
			t.Fatalf("load %d (%#x): event-driven completed %+v, per-cycle %+v", i, addrs[i], evt[i], ref[i])
		}
	}
	if refH.DRAMReadsDemand != evtH.DRAMReadsDemand || refH.LLCDemandMisses != evtH.LLCDemandMisses {
		t.Fatalf("stats diverged: dram reads %d/%d, llc misses %d/%d",
			evtH.DRAMReadsDemand, refH.DRAMReadsDemand, evtH.LLCDemandMisses, refH.LLCDemandMisses)
	}
	if !refH.Drained() || !evtH.Drained() {
		t.Fatal("hierarchies did not drain")
	}
}

// TestLLCRetryMSHRFull pins the llcRetry path when the LLC MSHR file stays
// full across many consecutive Ticks: demand misses beyond the file's
// capacity park on the retry list, NextEvent reports immediate work while
// the backlog exists, every access still completes exactly once, and the
// backlog does not strand entries (Drained afterwards).
func TestLLCRetryMSHRFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LLCMSHRs = 2
	h := New(cfg)

	const n = 8
	done := 0
	for i := 0; i < n; i++ {
		// Distinct lines spread across sets: all L1 and LLC misses.
		addr := uint64(0x40000 + i*4096)
		if !load(h, 0, addr, false, nil, func(Outcome) { done++ }) {
			t.Fatal("load rejected in test setup")
		}
	}

	var now int64
	backlogTicks := 0
	maxBacklog := 0
	for now = 1; now < 100_000 && done < n; now++ {
		h.Tick(now)
		if len(h.llcRetry) > 0 {
			backlogTicks++
			if len(h.llcRetry) > maxBacklog {
				maxBacklog = len(h.llcRetry)
			}
			if ne := h.NextEvent(); ne != now+1 {
				t.Fatalf("cycle %d: NextEvent = %d with a retry backlog, want %d", now, ne, now+1)
			}
		}
		if err := h.CheckInvariants(true); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
	}
	if done != n {
		t.Fatalf("only %d/%d loads completed", done, n)
	}
	if maxBacklog != n-cfg.LLCMSHRs {
		t.Fatalf("retry backlog peaked at %d, want %d (misses beyond the MSHR file)", maxBacklog, n-cfg.LLCMSHRs)
	}
	// A full DRAM round trip is ~104 cycles; the file must have stayed full
	// (and the backlog retried) across many Ticks, not just one.
	if backlogTicks < 50 {
		t.Fatalf("retry backlog persisted only %d ticks; the multi-Tick path is untested", backlogTicks)
	}
	if len(h.llcRetry) != 0 || !h.Drained() {
		t.Fatalf("hierarchy did not drain (retry=%d)", len(h.llcRetry))
	}
}

// TestDRAMWaitOverflowRing exercises the dramWait ring under sustained
// back-pressure from a tiny DRAM queue: requests overflow into the ring,
// drain strictly in FIFO order, and the ring releases every slot.
func TestDRAMWaitOverflowRing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DRAM.QueueCap = 2
	h := New(cfg)

	const n = 24
	done := 0
	for i := 0; i < n; i++ {
		if !load(h, 0, uint64(0x80000+i*4096), false, nil, func(Outcome) { done++ }) {
			t.Fatal("load rejected in test setup")
		}
	}
	overflowed := false
	var now int64
	for now = 1; now < 1_000_000 && done < n; now++ {
		h.Tick(now)
		if h.dramWait.len() > 0 {
			overflowed = true
		}
		if err := h.CheckInvariants(true); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
	}
	if done != n {
		t.Fatalf("only %d/%d loads completed", done, n)
	}
	if !overflowed {
		t.Fatal("dramWait never overflowed; the ring is untested")
	}
	if h.dramWait.len() != 0 || h.dramWait.head != 0 || len(h.dramWait.buf) != 0 {
		t.Fatalf("drained ring not reset: len=%d head=%d cap-in-use=%d",
			h.dramWait.len(), h.dramWait.head, len(h.dramWait.buf))
	}
	if !h.Drained() {
		t.Fatal("hierarchy did not drain")
	}
}

// TestReqRing is the unit test for the overflow FIFO: strict order across
// interleaved pushes and pops, popped slots nil'd immediately (the leak the
// old `q = q[1:]` head-slicing had), and head compaction once the dead
// prefix dominates.
func TestReqRing(t *testing.T) {
	var q reqRing
	next := uint64(0) // next value to push
	want := uint64(0) // next value expected out
	push := func(k int) {
		for i := 0; i < k; i++ {
			q.push(&dram.Request{LineAddr: next})
			next++
		}
	}
	pop := func(k int) {
		for i := 0; i < k; i++ {
			if got := q.front().LineAddr; got != want {
				t.Fatalf("front = %d, want %d", got, want)
			}
			q.pop()
			want++
		}
	}
	// Interleave so the head prefix grows past the compaction threshold
	// while the ring stays non-empty.
	push(100)
	pop(63)
	if q.head == 0 {
		t.Fatal("head never advanced; slicing semantics changed")
	}
	for i := 0; i < q.head; i++ {
		if q.buf[i] != nil {
			t.Fatalf("popped slot %d retains its request", i)
		}
	}
	push(30)
	pop(37) // crosses head >= 64 with head*2 >= len: compaction must fire
	if q.head >= 64 {
		t.Fatalf("head = %d after the compaction threshold; compaction never fired", q.head)
	}
	if q.len() != 30 {
		t.Fatalf("ring holds %d entries, want 30", q.len())
	}
	for i := 0; i < q.head; i++ {
		if q.buf[i] != nil {
			t.Fatalf("dead slot %d retains its request after compaction", i)
		}
	}
	pop(q.len())
	if q.len() != 0 || q.head != 0 || len(q.buf) != 0 {
		t.Fatalf("emptied ring not reset (len=%d head=%d buf=%d)", q.len(), q.head, len(q.buf))
	}
	// Order survives heavy churn.
	for round := 0; round < 50; round++ {
		push(7)
		pop(5)
	}
	pop(q.len())
	if want != next {
		t.Fatal(fmt.Sprintf("popped %d of %d pushed", want, next))
	}
}
