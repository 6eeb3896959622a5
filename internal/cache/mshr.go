package cache

// Level is the deepest hierarchy level an access had to reach. It lives here
// (rather than in memsys, which re-exports it) so MSHR waiter callbacks can
// receive a fully-formed Outcome without an adapter closure per miss.
type Level uint8

// Hierarchy levels.
const (
	LevelL1 Level = iota
	LevelLLC
	LevelMem
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelLLC:
		return "LLC"
	default:
		return "Mem"
	}
}

// Outcome reports the completion of an access. Line is the line address the
// access resolved to — callers that share one completion callback across all
// their outstanding accesses (the core's I-fetch path) use it to tell which
// access finished instead of capturing that state in a per-access closure.
type Outcome struct {
	When  int64
	Level Level
	Line  uint64
}

// LoadTag identifies one outstanding load to the requestor that issued it.
// The hierarchy never looks inside: it copies the tag by value into MSHR
// records and events and hands it back to the requestor's load sink, so a
// load miss needs no per-access closure. Ref is the requestor's handle for
// the load and must be non-nil; a pointer stored in an interface does not
// allocate. Gen and Seq let the requestor recognize a handle whose slot it
// has recycled since the load issued, and Addr is the address it loaded.
type LoadTag struct {
	Ref  any
	Gen  uint64
	Seq  uint64
	Addr uint64
}

// Waiter is one completion attached to an MSHR. The fill loop constructs the
// Outcome (it knows the cycle, the fill level, and the line) and either calls
// Done — a shared callback the requester built once (stores, instruction
// fetches, LLC-to-L1 fills) — or, when Done is nil, delivers Load to the
// requestor's load sink. MarkDirty tags store waiters: the owner dirties the
// filled line before invoking Done. The zero Waiter attaches nothing.
type Waiter struct {
	Done      func(Outcome)
	Load      LoadTag
	MarkDirty bool
}

// EarlyMiss is one DRAM-bound notification owed to a load waiting on an
// MSHR: the owner reports Load to the requestor's load sink the moment the
// miss is known to go to DRAM (runahead needs to learn this without waiting
// for data). NoWait marks the load that allocated the entry under no-wait
// (runahead) semantics: it also completes at that moment, and its fill
// waiter, Waiters[0], is cleared so the later fill cannot notify it again.
type EarlyMiss struct {
	Load   LoadTag
	NoWait bool
}

// MSHRFile tracks outstanding misses for one cache level. Requests to a line
// that already has an entry merge into it instead of issuing a duplicate
// fill, which is also how runahead's extra loads to already-missing lines
// avoid generating redundant DRAM traffic.
type MSHRFile struct {
	cap     int
	entries map[uint64]*MSHR

	// Statistics.
	Allocs uint64
	Merges uint64
	// Full counts Allocate calls refused because every entry was in use —
	// one per refused access, so a load retried each cycle counts each time.
	Full uint64
	// Peak is the maximum simultaneous occupancy seen — the MLP ceiling a
	// run actually reached, plotted against capacity by the timeline tools.
	Peak int

	// Simulator self-profiling (not simulated state, not snapshotted):
	// Allocate outcomes against the recycle pool. PoolHits reuse an entry
	// (and its waiter-list backing array); PoolNews hit the Go allocator.
	// A warm file should be ~all hits after the first few misses. PoolFull
	// counts the same refusals as Full but, like the pool counters, is never
	// reset, so the metrics exporter can publish it as a monotonic total.
	PoolHits uint64 //simlint:nosnapshot simulator self-profiling, not simulated state
	PoolNews uint64 //simlint:nosnapshot simulator self-profiling, not simulated state
	PoolFull uint64 //simlint:nosnapshot simulator self-profiling, not simulated state

	// Lifetime conservation counters. Unlike Allocs (zeroed by ResetStats
	// while entries are outstanding), these are never reset, so
	// allocTotal == completeTotal + Outstanding() holds at all times; see
	// CheckConservation.
	allocTotal    uint64
	completeTotal uint64

	// free holds recycled entries (see Recycle); their waiter-list backing
	// arrays are kept so steady-state misses allocate nothing.
	//simlint:nosnapshot host-side recycle pool; its contents never reach simulated state
	free []*MSHR
}

// MSHR is one outstanding line fill.
type MSHR struct {
	LineAddr uint64
	// Waiters are the completions notified at fill with the outcome.
	Waiters []Waiter
	// Prefetch is true while the fill is owed only to prefetch requests; a
	// demand merge clears it (late prefetch).
	Prefetch bool
	// DemandMerged records that a demand access merged into a prefetch MSHR
	// (FDP lateness signal).
	DemandMerged bool
	// FillFromMem is set by the owner when the fill had to go to DRAM, so
	// waiters can learn how deep the miss went.
	FillFromMem bool
	// EarlyMiss lists the loads to notify when the miss is known to be
	// DRAM-bound.
	EarlyMiss []EarlyMiss
	// Req is the requestor (core) the fill is attributed to in shared MSHR
	// files — the LLC level uses it to charge eviction writebacks to the core
	// whose miss displaced the victim. Recycle zeroes it, so owners restamp
	// it after every Allocate.
	Req int
}

// NewMSHRFile returns an MSHR file with the given capacity.
func NewMSHRFile(capacity int) *MSHRFile {
	if capacity <= 0 {
		panic("cache: MSHR file needs positive capacity")
	}
	return &MSHRFile{cap: capacity, entries: make(map[uint64]*MSHR, capacity)}
}

// Lookup returns the outstanding entry for lineAddr, if any.
func (f *MSHRFile) Lookup(lineAddr uint64) (*MSHR, bool) {
	m, ok := f.entries[lineAddr]
	return m, ok
}

// Allocate creates an entry for lineAddr. It returns nil and counts the
// rejection when the file is full; it is the only place a refusal is
// counted, so callers try it rather than testing occupancy first. lineAddr
// must not already be present (callers merge via Lookup first).
func (f *MSHRFile) Allocate(lineAddr uint64, prefetch bool) *MSHR {
	if len(f.entries) >= f.cap {
		f.Full++
		f.PoolFull++
		return nil
	}
	if _, ok := f.entries[lineAddr]; ok {
		panic("cache: MSHR already allocated for line")
	}
	var m *MSHR
	if n := len(f.free); n > 0 {
		m = f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		m.LineAddr, m.Prefetch = lineAddr, prefetch
		f.PoolHits++
	} else {
		m = &MSHR{LineAddr: lineAddr, Prefetch: prefetch}
		f.PoolNews++
	}
	f.entries[lineAddr] = m
	f.Allocs++
	f.allocTotal++
	if n := len(f.entries); n > f.Peak {
		f.Peak = n
	}
	return m
}

// Merge attaches a waiter to an existing entry. A demand merge into a
// prefetch entry converts it and records the lateness.
func (f *MSHRFile) Merge(m *MSHR, demand bool, waiter Waiter) {
	if waiter.Done != nil || waiter.Load.Ref != nil {
		m.Waiters = append(m.Waiters, waiter)
	}
	if demand && m.Prefetch {
		m.Prefetch = false
		m.DemandMerged = true
	}
	f.Merges++
}

// Complete removes the entry and returns it so the caller can run waiters.
func (f *MSHRFile) Complete(lineAddr uint64) *MSHR {
	m, ok := f.entries[lineAddr]
	if !ok {
		panicNotAllocated()
	}
	delete(f.entries, lineAddr)
	f.completeTotal++
	return m
}

// panicNotAllocated is Complete's bug report, out of line so the inlined
// Complete carries no panic value into its callers' hot paths.
//
//go:noinline
func panicNotAllocated() {
	panic("cache: completing MSHR that was never allocated")
}

// Recycle returns a completed entry to the allocation pool. The caller must
// be done with every reference to m — waiters run, fill level inspected —
// because the next Allocate may hand the same entry out again. Waiter and
// notification slots are zeroed so recycled lists don't retain dead
// callbacks or load handles, but the backing arrays survive for reuse.
func (f *MSHRFile) Recycle(m *MSHR) {
	clear(m.Waiters)
	clear(m.EarlyMiss)
	*m = MSHR{Waiters: m.Waiters[:0], EarlyMiss: m.EarlyMiss[:0]}
	f.free = append(f.free, m)
}

// Outstanding returns the number of in-flight entries.
func (f *MSHRFile) Outstanding() int { return len(f.entries) }

// Clear drops all entries (used only by whole-machine reset in tests). The
// dropped entries count as completed so conservation keeps holding.
func (f *MSHRFile) Clear() {
	clear(f.entries)
	f.completeTotal = f.allocTotal
}
