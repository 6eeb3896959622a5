package cache

import (
	"fmt"

	"runaheadsim/internal/snapshot"
)

// SnapshotTo serializes the tag array: geometry first (a restore into a
// different geometry fails loudly), then every line in set-major, way-minor
// order — including LRU stamps, so replacement decisions after a restore
// match the uninterrupted run bit for bit.
func (c *Cache) SnapshotTo(w *snapshot.Writer) error {
	w.Mark("cache")
	w.Str(c.cfg.Name)
	w.Int(c.cfg.SizeBytes)
	w.Int(c.cfg.Ways)
	w.Int(c.cfg.LineBytes)
	w.U64(c.stamp)
	for _, set := range c.sets {
		for i := range set {
			l := &set[i]
			w.U64(l.tag)
			w.Bool(l.valid)
			w.Bool(l.dirty)
			w.Bool(l.prefetched)
			w.U64(l.lastUse)
		}
	}
	w.U64(c.Hits)
	w.U64(c.Misses)
	w.U64(c.Evictions)
	return nil
}

// RestoreFrom reads state written by SnapshotTo into c, which must have the
// same geometry.
func (c *Cache) RestoreFrom(r *snapshot.Reader) error {
	r.Expect("cache")
	if name := r.Str(); r.Err() == nil && name != c.cfg.Name {
		r.Failf("cache: restoring %q snapshot into %q", name, c.cfg.Name)
	}
	for _, g := range []struct {
		name string
		have int
	}{
		{"size", c.cfg.SizeBytes},
		{"ways", c.cfg.Ways},
		{"line bytes", c.cfg.LineBytes},
	} {
		if got := r.Int(); r.Err() == nil && got != g.have {
			r.Failf("cache %q: %s is %d, snapshot has %d", c.cfg.Name, g.name, g.have, got)
		}
	}
	if r.Err() != nil {
		return r.Err()
	}
	c.stamp = r.U64()
	for _, set := range c.sets {
		for i := range set {
			l := &set[i]
			l.tag = r.U64()
			l.valid = r.Bool()
			l.dirty = r.Bool()
			l.prefetched = r.Bool()
			l.lastUse = r.U64()
		}
	}
	c.Hits = r.U64()
	c.Misses = r.U64()
	c.Evictions = r.U64()
	return r.Err()
}

// SnapshotTo serializes the MSHR file's bookkeeping. Outstanding entries hold
// completion callbacks and load handles and are unserializable by design, so the file must be
// drained first; memsys refuses to snapshot until it is.
func (f *MSHRFile) SnapshotTo(w *snapshot.Writer) error {
	w.Mark("mshr")
	if n := f.Outstanding(); n != 0 {
		return fmt.Errorf("cache: snapshotting MSHR file with %d outstanding entries", n)
	}
	w.Int(f.cap)
	w.U64(f.Allocs)
	w.U64(f.Merges)
	w.U64(f.Full)
	w.Int(f.Peak)
	w.U64(f.allocTotal)
	w.U64(f.completeTotal)
	return nil
}

// RestoreFrom reads state written by SnapshotTo into f, which must have the
// same capacity and no outstanding entries.
func (f *MSHRFile) RestoreFrom(r *snapshot.Reader) error {
	r.Expect("mshr")
	if n := f.Outstanding(); n != 0 {
		r.Failf("cache: restoring MSHR file with %d outstanding entries", n)
		return r.Err()
	}
	if got := r.Int(); r.Err() == nil && got != f.cap {
		r.Failf("cache: MSHR capacity %d, snapshot has %d", f.cap, got)
	}
	if r.Err() != nil {
		return r.Err()
	}
	f.Allocs = r.U64()
	f.Merges = r.U64()
	f.Full = r.U64()
	f.Peak = r.Int()
	f.allocTotal = r.U64()
	f.completeTotal = r.U64()
	// Dropping the (empty) map and restoring the lifetime counters preserves
	// the conservation invariant: allocTotal == completeTotal + Outstanding().
	return r.Err()
}
