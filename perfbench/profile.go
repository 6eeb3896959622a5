package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// This file folds a runtime/pprof CPU profile into layers using only the
// standard library: it decodes the gzipped profile.proto with a small
// varint reader and keeps the fields folding needs.

// profile is the subset of profile.proto that folding reads.
type profile struct {
	sampleTypes []valueType
	samples     []sample
	locations   map[uint64][]line // location id -> frames, innermost first
	functions   map[uint64]function
	strings     []string
}

type valueType struct{ typ, unit int64 }

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

type line struct{ function uint64 }

type function struct{ name, file int64 }

// protoReader walks the fields of one protobuf message.
type protoReader struct {
	b   []byte
	err error
}

var errTruncated = errors.New("profile: truncated protobuf")

func (r *protoReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = errTruncated
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.err = errors.New("profile: varint overflows 64 bits")
	return 0
}

// next returns the next field's number and wire type, its varint value
// (wire type 0) or its bytes (wire type 2). ok is false at the end of the
// message or on a decoding error, which r.err then holds.
func (r *protoReader) next() (field int, wire int, v uint64, data []byte, ok bool) {
	if r.err != nil || len(r.b) == 0 {
		return 0, 0, 0, nil, false
	}
	key := r.varint()
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v = r.varint()
	case 1:
		if len(r.b) < 8 {
			r.err = errTruncated
			return 0, 0, 0, nil, false
		}
		r.b = r.b[8:]
	case 2:
		n := r.varint()
		if n > uint64(len(r.b)) {
			r.err = errTruncated
			return 0, 0, 0, nil, false
		}
		data, r.b = r.b[:n], r.b[n:]
	case 5:
		if len(r.b) < 4 {
			r.err = errTruncated
			return 0, 0, 0, nil, false
		}
		r.b = r.b[4:]
	default:
		r.err = fmt.Errorf("profile: unsupported wire type %d", wire)
		return 0, 0, 0, nil, false
	}
	return field, wire, v, data, r.err == nil
}

// uints appends a repeated integer field, which may arrive packed (wire
// type 2) or as one varint per occurrence.
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	pr := protoReader{b: data}
	for len(pr.b) > 0 && pr.err == nil {
		dst = append(dst, pr.varint())
	}
	return dst, pr.err
}

// parseProfile decodes a gzipped (or raw) profile.proto.
func parseProfile(raw []byte) (*profile, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &profile{locations: map[uint64][]line{}, functions: map[uint64]function{}}
	r := protoReader{b: raw}
	for {
		field, _, _, data, ok := r.next()
		if !ok {
			break
		}
		var err error
		switch field {
		case 1: // sample_type
			var vt valueType
			sub := protoReader{b: data}
			for f, _, x, _, ok := sub.next(); ok; f, _, x, _, ok = sub.next() {
				switch f {
				case 1:
					vt.typ = int64(x)
				case 2:
					vt.unit = int64(x)
				}
			}
			err = sub.err
			p.sampleTypes = append(p.sampleTypes, vt)
		case 2: // sample
			var s sample
			sub := protoReader{b: data}
			for f, w, x, d, ok := sub.next(); ok && err == nil; f, w, x, d, ok = sub.next() {
				switch f {
				case 1:
					s.locations, err = uints(s.locations, w, x, d)
				case 2:
					var vals []uint64
					vals, err = uints(nil, w, x, d)
					for _, u := range vals {
						s.values = append(s.values, int64(u))
					}
				}
			}
			if err == nil {
				err = sub.err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var lines []line
			sub := protoReader{b: data}
			for f, _, x, d, ok := sub.next(); ok; f, _, x, d, ok = sub.next() {
				switch f {
				case 1:
					id = x
				case 4:
					var ln line
					lr := protoReader{b: d}
					for lf, _, lx, _, ok := lr.next(); ok; lf, _, lx, _, ok = lr.next() {
						if lf == 1 {
							ln.function = lx
						}
					}
					if lr.err != nil {
						err = lr.err
					}
					lines = append(lines, ln)
				}
			}
			if err == nil {
				err = sub.err
			}
			p.locations[id] = lines
		case 5: // function
			var id uint64
			var fn function
			sub := protoReader{b: data}
			for f, _, x, _, ok := sub.next(); ok; f, _, x, _, ok = sub.next() {
				switch f {
				case 1:
					id = x
				case 2:
					fn.name = int64(x)
				case 4:
					fn.file = int64(x)
				}
			}
			err = sub.err
			p.functions[id] = fn
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		if err != nil {
			return nil, err
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return p, nil
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// fold charges each sample's CPU time to a layer and adds it to acc, keyed
// by layer name. A sample goes to the innermost frame that maps to a layer
// (see frameLayer), so time in a standard-library helper such as a map
// lookup or memmove is charged to the simulator code that called it;
// samples with no such frame go to layerUnattributed. It returns the total
// CPU nanoseconds folded.
func (p *profile) fold(acc map[string]int64) (int64, error) {
	vi := -1
	for i, st := range p.sampleTypes {
		if p.str(st.typ) == "cpu" && p.str(st.unit) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return 0, errors.New("profile: no cpu/nanoseconds sample type")
	}
	var total int64
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return 0, errors.New("profile: sample has too few values")
		}
		ns := s.values[vi]
		total += ns
		acc[p.sampleLayer(s)] += ns
	}
	return total, nil
}

func (p *profile) sampleLayer(s sample) string {
	for _, loc := range s.locations {
		for _, ln := range p.locations[loc] {
			fn := p.functions[ln.function]
			if l := frameLayer(p.str(fn.file), p.str(fn.name)); l != "" {
				return l
			}
		}
	}
	return layerUnattributed
}
