package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Profile folding: the traced run's CPU profile (runtime/pprof, gzipped
// profile.proto) is decoded here and every sample's CPU time is charged to
// one layer:
//
//   - the innermost repro/internal/<module> frame of its stack, so runtime
//     map, malloc and GC-assist helpers count for the module that called
//     them;
//   - "perfbench" for the benchmark's own code (package main) and its HTTP
//     client's connection goroutines, when no internal module is on the
//     stack;
//   - "runtime.gc" for background GC workers;
//   - "other" for everything else (net/http plumbing, the scheduler).
//
// The layers therefore partition the total sample time exactly.

// layerGC and layerOther are the two layers that are not modules.
const (
	layerGC        = "runtime.gc"
	layerOther     = "other"
	layerPerfbench = "perfbench"
)

// gcRoots are background-GC entry points: a stack with one of these and
// no module frame is collector work nobody asked for directly.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// layerOf picks the layer of one stack, leaf first.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			if i := strings.IndexAny(rest, "/."); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	for _, fn := range stack {
		// The process's only HTTP client is the benchmark's load generator.
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "net/http.(*persistConn)") {
			return layerPerfbench
		}
	}
	for _, fn := range stack {
		for _, root := range gcRoots {
			if fn == root {
				return layerGC
			}
		}
	}
	return layerOther
}

// foldProfile decodes a gzipped pprof CPU profile and returns the CPU
// seconds charged to each layer.
func foldProfile(data []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	vi := p.cpuIndex()
	out := map[string]float64{}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		var stack []string
		for _, id := range s.locs {
			for _, fid := range p.locs[id] {
				stack = append(stack, p.str(p.funcs[fid]))
			}
		}
		out[layerOf(stack)] += float64(s.values[vi]) / 1e9
	}
	return out, nil
}

// profile is the subset of profile.proto folding needs.
type profile struct {
	sampleTypes [][2]int64 // (type, unit) string indices
	samples     []pSample
	locs        map[uint64][]uint64 // location id -> function ids, innermost first
	funcs       map[uint64]int64    // function id -> name string index
	strs        []string
}

type pSample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// cpuIndex finds the "cpu"/"nanoseconds" value; Go's CPU profiles put it
// second, after the sample count.
func (p *profile) cpuIndex() int {
	for i, st := range p.sampleTypes {
		if p.str(st[0]) == "cpu" && p.str(st[1]) == "nanoseconds" {
			return i
		}
	}
	return len(p.sampleTypes) - 1
}

// Protocol-buffer wire decoding, just enough for profile.proto.

type pbReader struct {
	b []byte
}

var errTruncated = errors.New("truncated protobuf")

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("varint overflow")
}

// field reads one field: its number, wire type, varint value (types 0,
// 1, 5) or payload (type 2).
func (r *pbReader) field() (num int, typ int, v uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, typ = int(key>>3), int(key&7)
	switch typ {
	case 0:
		v, err = r.varint()
	case 1, 5:
		n := 8
		if typ == 5 {
			n = 4
		}
		if len(r.b) < n {
			return 0, 0, 0, nil, errTruncated
		}
		for i := n - 1; i >= 0; i-- {
			v = v<<8 | uint64(r.b[i])
		}
		r.b = r.b[n:]
	case 2:
		var n uint64
		if n, err = r.varint(); err != nil {
			return
		}
		if uint64(len(r.b)) < n {
			return 0, 0, 0, nil, errTruncated
		}
		payload, r.b = r.b[:n], r.b[n:]
	default:
		err = fmt.Errorf("unsupported wire type %d", typ)
	}
	return
}

// uints appends a repeated integer field, packed (type 2) or not.
func uints(dst []uint64, typ int, v uint64, payload []byte) ([]uint64, error) {
	if typ != 2 {
		return append(dst, v), nil
	}
	r := pbReader{payload}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	r := pbReader{b}
	for len(r.b) > 0 {
		num, _, _, payload, err := r.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type
			var st [2]int64
			if err := eachField(payload, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					st[n-1] = int64(v)
				}
				return nil
			}); err != nil {
				return nil, err
			}
			p.sampleTypes = append(p.sampleTypes, st)
		case 2: // sample
			var s pSample
			if err := eachField(payload, func(n, t int, v uint64, pl []byte) error {
				var err error
				switch n {
				case 1:
					s.locs, err = uints(s.locs, t, v, pl)
				case 2:
					var vs []uint64
					vs, err = uints(nil, t, v, pl)
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			}); err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fids []uint64
			if err := eachField(payload, func(n, _ int, v uint64, pl []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line: function_id is field 1
					return eachField(pl, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return nil, err
			}
			p.locs[id] = fids
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(payload, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return nil, err
			}
			p.funcs[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(payload))
		}
	}
	return p, nil
}

// eachField walks a message's fields.
func eachField(b []byte, fn func(num, typ int, v uint64, payload []byte) error) error {
	r := pbReader{b}
	for len(r.b) > 0 {
		num, typ, v, payload, err := r.field()
		if err != nil {
			return err
		}
		if err := fn(num, typ, v, payload); err != nil {
			return err
		}
	}
	return nil
}
