package stats

import "runaheadsim/internal/snapshot"

// SnapshotTo serializes the histogram: geometry first so a restore into a
// histogram of different shape fails loudly, then the observation state.
func (h *Histogram) SnapshotTo(w *snapshot.Writer) error {
	w.Mark("hist")
	w.U64(h.BucketWidth)
	w.Int(len(h.Buckets))
	for _, b := range h.Buckets {
		w.U64(b)
	}
	w.U64(h.Count)
	w.U64(h.Sum)
	w.U64(h.MaxSeen)
	return nil
}

// RestoreFrom reads state written by SnapshotTo into h, which must have the
// same bucket geometry.
func (h *Histogram) RestoreFrom(r *snapshot.Reader) error {
	r.Expect("hist")
	if bw := r.U64(); r.Err() == nil && bw != h.BucketWidth {
		r.Failf("stats: histogram bucket width %d, snapshot has %d", h.BucketWidth, bw)
	}
	if n := r.Int(); r.Err() == nil && n != len(h.Buckets) {
		r.Failf("stats: histogram has %d buckets, snapshot has %d", len(h.Buckets), n)
	}
	if r.Err() != nil {
		return r.Err()
	}
	for i := range h.Buckets {
		h.Buckets[i] = r.U64()
	}
	h.Count = r.U64()
	h.Sum = r.U64()
	h.MaxSeen = r.U64()
	return r.Err()
}

// Merge folds o's observations into h. Both histograms must have the same
// bucket geometry; Merge panics otherwise, since merging mismatched shapes
// would silently misattribute samples.
func (h *Histogram) Merge(o *Histogram) {
	if h.BucketWidth != o.BucketWidth || len(h.Buckets) != len(o.Buckets) {
		panic("stats: merging histograms of different geometry")
	}
	for i, b := range o.Buckets {
		h.Buckets[i] += b
	}
	h.Count += o.Count
	h.Sum += o.Sum
	if o.MaxSeen > h.MaxSeen {
		h.MaxSeen = o.MaxSeen
	}
}
