package main

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"testing"
	"time"
)

// pbuf encodes the few protobuf shapes a profile uses.
type pbuf struct{ b []byte }

func (p *pbuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *pbuf) uint(field int, v uint64) {
	p.varint(uint64(field) << 3)
	p.varint(v)
}

func (p *pbuf) msg(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pbuf) packed(field int, vs ...uint64) {
	var q pbuf
	for _, v := range vs {
		q.varint(v)
	}
	p.msg(field, q.b)
}

// fixedProfile is a five-sample CPU profile: self time in a simulator file,
// an allocation, a map lookup called from the simulator, a map lookup
// inlined into runahead code, and time with no simulator frame at all.
func fixedProfile() []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runaheadsim/internal/core/sched.go", "runaheadsim/internal/core.(*Core).issueStage",
		"runtime/malloc.go", "runtime.mallocgc",
		"runtime/map_fast64.go", "runtime.mapaccess1_fast64",
		"runaheadsim/internal/core/runahead.go", "runaheadsim/internal/core.(*Core).decideBuffer",
		"sort/sort.go", "sort.Sort"}
	var p pbuf
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} {
		var q pbuf
		q.uint(1, st[0])
		q.uint(2, st[1])
		p.msg(1, q.b)
	}
	// Samples: location ids leaf first, then [count, nanoseconds]. The
	// second sample encodes its repeated fields unpacked.
	samples := []struct{ locs, vals []uint64 }{
		{[]uint64{1}, []uint64{1, 10e6}},
		{[]uint64{2, 1}, []uint64{2, 20e6}},
		{[]uint64{3, 1}, []uint64{3, 30e6}},
		{[]uint64{4}, []uint64{4, 40e6}},
		{[]uint64{5}, []uint64{5, 50e6}},
	}
	for i, s := range samples {
		var q pbuf
		if i == 1 {
			for _, l := range s.locs {
				q.uint(1, l)
			}
			for _, v := range s.vals {
				q.uint(2, v)
			}
		} else {
			q.packed(1, s.locs...)
			q.packed(2, s.vals...)
		}
		p.msg(2, q.b)
	}
	// Locations: id -> function ids, innermost first. Location 4 is a map
	// lookup inlined into decideBuffer.
	for _, loc := range []struct {
		id  uint64
		fns []uint64
	}{{1, []uint64{1}}, {2, []uint64{2}}, {3, []uint64{3}}, {4, []uint64{3, 4}}, {5, []uint64{5}}} {
		var q pbuf
		q.uint(1, loc.id)
		for _, f := range loc.fns {
			var ln pbuf
			ln.uint(1, f)
			ln.uint(2, 42)
			q.msg(4, ln.b)
		}
		p.msg(4, q.b)
	}
	for i, fn := range [][2]uint64{{6, 5}, {8, 7}, {10, 9}, {12, 11}, {14, 13}} {
		var q pbuf
		q.uint(1, uint64(i+1))
		q.uint(2, fn[0])
		q.uint(4, fn[1])
		p.msg(5, q.b)
	}
	for _, s := range strs {
		p.msg(6, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(p.b)
	zw.Close()
	return z.Bytes()
}

func TestFoldFixedProfile(t *testing.T) {
	prof, err := parseProfile(fixedProfile())
	if err != nil {
		t.Fatal(err)
	}
	acc := map[string]int64{}
	total, err := prof.fold(acc)
	if err != nil {
		t.Fatal(err)
	}
	if total != 150e6 {
		t.Errorf("total = %d, want 150e6", total)
	}
	want := map[string]int64{
		"core.sched":      40e6, // self time plus the map lookup it called
		layerGC:           20e6,
		"core.runahead":   40e6, // the inlined lookup's caller frame
		layerUnattributed: 50e6,
	}
	if len(acc) != len(want) {
		t.Errorf("folded into %d layers, want %d: %v", len(acc), len(want), acc)
	}
	for _, l := range layerNames() {
		if acc[l] != want[l] {
			t.Errorf("%s = %d, want %d", l, acc[l], want[l])
		}
	}
}

func TestParseProfileRejectsTruncation(t *testing.T) {
	var raw bytes.Buffer
	zr, err := gzip.NewReader(bytes.NewReader(fixedProfile()))
	if err != nil {
		t.Fatal(err)
	}
	raw.ReadFrom(zr)
	for _, n := range []int{1, 7, raw.Len() / 2, raw.Len() - 1} {
		if _, err := parseProfile(raw.Bytes()[:n]); err == nil {
			t.Errorf("profile truncated to %d of %d bytes parsed without error", n, raw.Len())
		}
	}
}

// TestFoldRuntimeProfile folds a real profile from runtime/pprof.
func TestFoldRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	var sink []byte
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		sink = make([]byte, 1<<10)
	}
	_ = sink
	pprof.StopCPUProfile()
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	acc := map[string]int64{}
	total, err := prof.fold(acc)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, l := range layerNames() {
		sum += acc[l]
	}
	if sum != total {
		t.Errorf("layers sum to %d ns, profile total %d ns", sum, total)
	}
}
