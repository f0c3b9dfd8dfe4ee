package isa

import (
	"testing"
	"unsafe"
)

func TestSummarize(t *testing.T) {
	tr := Trace{
		{Kind: OpCompute, N: 10},
		{Kind: OpCompute, N: 5},
		{Kind: OpLoad, Addr: 0, N: 4},
		{Kind: OpLoadDep, Addr: 8, N: 4},
		{Kind: OpStore, Addr: 16, N: 4},
		{Kind: OpAtomic, Addr: 24, N: 4},
		{Kind: OpScratch, N: 4},
		{Kind: OpSync},
	}
	s := Summarize(tr)
	if s.FLOPs != 15 {
		t.Fatalf("flops = %d", s.FLOPs)
	}
	if s.Loads != 2 {
		t.Fatalf("loads = %d", s.Loads)
	}
	if s.Stores != 1 || s.Atomics != 1 || s.ScratchOps != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s != (Stats{}) {
		t.Fatalf("empty trace stats = %+v", s)
	}
}

func TestOpStaysCompact(t *testing.T) {
	// The trace format must stay compact: lazily generated per-CTA traces
	// are the simulator's main memory consumer.
	var op Op
	if got := unsafe.Sizeof(op); got > 16 {
		t.Fatalf("Op is %d bytes, want <= 16", got)
	}
}

func TestArenaLanesAndReuse(t *testing.T) {
	var a Arena
	gen := func(lanes int) []Trace {
		buf := a.Open(0)
		for l := 0; l < lanes; l++ {
			for i := 0; i <= l; i++ { // lane l records l+1 ops
				buf = append(buf, Op{Kind: OpCompute, N: uint32(100*l + i)})
			}
			buf = a.EndLane(buf)
		}
		return a.Seal()
	}
	check := func(lanes []Trace, want int) {
		t.Helper()
		if len(lanes) != want {
			t.Fatalf("%d lanes, want %d", len(lanes), want)
		}
		for l, tr := range lanes {
			if len(tr) != l+1 || cap(tr) != len(tr) {
				t.Fatalf("lane %d: len %d cap %d, want len = cap = %d", l, len(tr), cap(tr), l+1)
			}
			for i, op := range tr {
				if op.N != uint32(100*l+i) {
					t.Fatalf("lane %d op %d = %d, want %d", l, i, op.N, 100*l+i)
				}
			}
		}
	}
	check(gen(8), 8)
	first := &a.ops[0]
	check(gen(5), 5) // reuse: fewer lanes, same storage
	if &a.ops[0] != first {
		t.Fatal("reopened arena reallocated its op buffer")
	}
	check(gen(8), 8)
	if n := testing.AllocsPerRun(100, func() { gen(8) }); n != 0 {
		t.Fatalf("regenerating into a warm arena allocates %.1f/op, want 0", n)
	}
}

func TestArenaOpenSizing(t *testing.T) {
	var a Arena
	for _, c := range []struct{ hint, want int }{
		{100, 100},         // grows to the hint
		{50, 100},          // a smaller hint keeps the buffer
		{1 << 16, 1 << 16}, // grows once to a large hint
		{1 << 15, 1 << 16}, // within 4x: kept
		{1 << 10, 1 << 10}, // outsized and above arenaKeep: shrunk
		{0, 1 << 10},       // no hint: kept
		{100, 1 << 10},     // outsized but below arenaKeep: kept
	} {
		if got := cap(a.Open(c.hint)); got != c.want {
			t.Fatalf("Open(%d): capacity %d, want %d", c.hint, got, c.want)
		}
	}
}
