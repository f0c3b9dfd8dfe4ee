package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// pbWriter encodes just enough protobuf to build a fixed profile.
type pbWriter struct{ b []byte }

func (w *pbWriter) varint(v uint64) {
	for v >= 0x80 {
		w.b = append(w.b, byte(v)|0x80)
		v >>= 7
	}
	w.b = append(w.b, byte(v))
}

func (w *pbWriter) uint(num int, v uint64) {
	w.varint(uint64(num)<<3 | 0)
	w.varint(v)
}

func (w *pbWriter) bytes(num int, b []byte) {
	w.varint(uint64(num)<<3 | 2)
	w.varint(uint64(len(b)))
	w.b = append(w.b, b...)
}

func (w *pbWriter) msg(num int, f func(*pbWriter)) {
	var m pbWriter
	f(&m)
	w.bytes(num, m.b)
}

func (w *pbWriter) packed(num int, vs []uint64) {
	var m pbWriter
	for _, v := range vs {
		m.varint(v)
	}
	w.bytes(num, m.b)
}

// fixedProfile builds a gzipped CPU profile. stacks are leaf first; a
// []string element of a stack is one location holding inlined frames,
// innermost first.
func fixedProfile(t *testing.T, stacks [][][]string, nanos []int64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strID := map[string]uint64{}
	for i, s := range strs {
		strID[s] = uint64(i)
	}
	funcID := map[string]uint64{}
	var p pbWriter
	p.msg(1, func(m *pbWriter) { m.uint(1, 1); m.uint(2, 2) })
	p.msg(1, func(m *pbWriter) { m.uint(1, 3); m.uint(2, 4) })
	var locs, funcs pbWriter
	nextLoc := uint64(1)
	for i, stack := range stacks {
		var ids []uint64
		for _, frames := range stack {
			var fids []uint64
			for _, fn := range frames {
				id, ok := funcID[fn]
				if !ok {
					id = uint64(len(funcID) + 1)
					funcID[fn] = id
					strID[fn] = uint64(len(strs))
					strs = append(strs, fn)
					funcs.msg(5, func(m *pbWriter) { m.uint(1, id); m.uint(2, strID[fn]) })
				}
				fids = append(fids, id)
			}
			lid := nextLoc
			nextLoc++
			locs.msg(4, func(m *pbWriter) {
				m.uint(1, lid)
				for _, fid := range fids {
					m.msg(4, func(l *pbWriter) { l.uint(1, fid); l.uint(2, 7) })
				}
			})
			ids = append(ids, lid)
		}
		p.msg(2, func(m *pbWriter) {
			if i%2 == 0 {
				m.packed(1, ids)
			} else { // unpacked repeated field, also legal
				for _, id := range ids {
					m.uint(1, id)
				}
			}
			m.packed(2, []uint64{1, uint64(nanos[i])})
		})
	}
	p.b = append(p.b, locs.b...)
	p.b = append(p.b, funcs.b...)
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p.b)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFoldFixedProfile(t *testing.T) {
	one := func(fns ...string) [][]string {
		var s [][]string
		for _, f := range fns {
			s = append(s, []string{f})
		}
		return s
	}
	stacks := [][][]string{
		// A map helper counts for the innermost module frame.
		one("runtime.mapaccess2", "repro/internal/core.(*Collector).Touch", "repro/internal/gpucore.(*SM).step", "runtime.goexit"),
		// Inlined frames: the innermost line of a location comes first.
		{{"repro/internal/memory.(*Cache).lookup", "repro/internal/gpucore.coalesce"}, {"repro/internal/sim.(*Engine).Run"}},
		one("runtime.mallocgc", "repro/internal/suites/rodinia.kmeansKernel", "repro/internal/device.(*System).Launch"),
		one("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"),
		one("runtime.memmove", "main.(*serveState).post", "net/http.(*Client).Do"),
		one("syscall.Syscall", "net/http.(*conn).serve"),
		// The load generator's HTTP client connections.
		one("internal/poll.(*FD).Read", "net/http.(*persistConn).readLoop"),
	}
	nanos := []int64{10e6, 4e6, 6e6, 7e6, 5e6, 3e6, 2e6}
	got, err := foldProfile(fixedProfile(t, stacks, nanos))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"core": 0.010, "memory": 0.004, "suites": 0.006,
		layerGC: 0.007, layerPerfbench: 0.007, layerOther: 0.003,
	}
	total := 0.0
	for _, n := range nanos {
		total += float64(n) / 1e9
	}
	sum := 0.0
	for l, s := range got {
		sum += s
		if math.Abs(s-want[l]) > 1e-12 {
			t.Errorf("layer %s: got %v s, want %v s", l, s, want[l])
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
	if math.Abs(sum-total) > 1e-12 {
		t.Errorf("layers sum to %v s, total sample time is %v s", sum, total)
	}
}

func TestFoldRejectsGarbage(t *testing.T) {
	if _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Fatal("want an error for a non-gzip profile")
	}
}
