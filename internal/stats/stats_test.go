package stats

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestComponentString(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU" || Copy.String() != "Copy" {
		t.Fatal("component names wrong")
	}
	if Component(9).String() != "Component(9)" {
		t.Fatal("unknown component name wrong")
	}
}

func TestComponentSet(t *testing.T) {
	s := ComponentSet(0).Set(CPU).Set(Copy)
	if !s.Has(CPU) || s.Has(GPU) || !s.Has(Copy) {
		t.Fatal("set membership wrong")
	}
	if s.String() != "CPU+Copy" {
		t.Fatalf("set string = %q", s.String())
	}
	if !ComponentSet(0).Empty() || s.Empty() {
		t.Fatal("Empty wrong")
	}
	if ComponentSet(0).String() != "none" {
		t.Fatal("empty string wrong")
	}
	sets := AllComponentSets()
	if len(sets) != 7 {
		t.Fatalf("want 7 subsets, got %d", len(sets))
	}
	seen := map[ComponentSet]bool{}
	for _, s := range sets {
		if s.Empty() || seen[s] {
			t.Fatalf("bad subset enumeration: %v", sets)
		}
		seen[s] = true
	}
}

func TestTimelineActiveMergesOverlaps(t *testing.T) {
	tl := NewTimeline()
	tl.Add(CPU, 0, 100)
	tl.Add(CPU, 50, 150) // overlaps
	tl.Add(CPU, 200, 300)
	tl.Add(CPU, 300, 300) // zero-length, ignored
	tl.Add(CPU, 400, 350) // inverted, ignored
	if got := tl.Active(CPU); got != 250 {
		t.Fatalf("active = %d, want 250", got)
	}
}

func TestTimelineBreakdown(t *testing.T) {
	tl := NewTimeline()
	// CPU busy 0-100, GPU busy 50-200, Copy busy 150-250; total window 0-300.
	tl.Add(CPU, 0, 100)
	tl.Add(GPU, 50, 200)
	tl.Add(Copy, 150, 250)
	b := tl.Breakdown(0, 300)

	if b.Total() != 300 {
		t.Fatalf("total = %d", b.Total())
	}
	if got := b.Exclusive(CPU); got != 50 {
		t.Fatalf("cpu exclusive = %d, want 50", got)
	}
	if got := b.BySet[ComponentSet(0).Set(CPU).Set(GPU)]; got != 50 {
		t.Fatalf("cpu+gpu overlap = %d, want 50", got)
	}
	if got := b.Exclusive(GPU); got != 50 {
		t.Fatalf("gpu exclusive = %d, want 50", got)
	}
	if got := b.BySet[ComponentSet(0).Set(GPU).Set(Copy)]; got != 50 {
		t.Fatalf("gpu+copy overlap = %d, want 50", got)
	}
	if got := b.Exclusive(Copy); got != 50 {
		t.Fatalf("copy exclusive = %d, want 50", got)
	}
	if got := b.Idle(); got != 50 {
		t.Fatalf("idle = %d, want 50", got)
	}
	if got := b.AnyActive(GPU); got != 150 {
		t.Fatalf("gpu any = %d, want 150", got)
	}
	if u := b.Utilization(GPU); u != 0.5 {
		t.Fatalf("gpu util = %v, want 0.5", u)
	}
}

func TestTimelineBreakdownClipsToWindow(t *testing.T) {
	tl := NewTimeline()
	tl.Add(CPU, 0, 1000)
	b := tl.Breakdown(100, 200)
	if got := b.Exclusive(CPU); got != 100 {
		t.Fatalf("clipped exclusive = %d, want 100", got)
	}
	if b.Idle() != 0 {
		t.Fatalf("idle = %d, want 0", b.Idle())
	}
}

func TestBreakdownUtilizationEmptyWindow(t *testing.T) {
	tl := NewTimeline()
	b := tl.Breakdown(10, 10)
	if b.Utilization(CPU) != 0 {
		t.Fatal("zero window utilization should be 0")
	}
}

// Property: for any set of intervals, the breakdown partitions the window —
// the per-set times sum exactly to the window length — and AnyActive(c)
// equals the merged active time of c clipped to the window.
func TestBreakdownPartitionProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		tl := NewTimeline()
		for i := 0; i+1 < len(raw); i += 2 {
			c := Component(int(raw[i]) % int(NumComponents))
			s := sim.Tick(raw[i] % 500)
			e := s + sim.Tick(raw[i+1]%100)
			tl.Add(c, s, e)
		}
		const lo, hi = 50, 450
		b := tl.Breakdown(lo, hi)
		var sum sim.Tick
		for _, v := range b.BySet {
			sum += v
		}
		if sum != hi-lo {
			return false
		}
		for c := Component(0); c < NumComponents; c++ {
			clipped := NewTimeline()
			for _, iv := range tl.merged(c) {
				s, e := iv.Start, iv.End
				if s < lo {
					s = lo
				}
				if e > hi {
					e = hi
				}
				clipped.Add(c, s, e)
			}
			if b.AnyActive(c) != clipped.Active(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounterHandle(t *testing.T) {
	c := NewCounters()
	h := c.Handle("x")
	if !h.Valid() {
		t.Fatal("handle from Handle() must be valid")
	}
	var zero Counter
	if zero.Valid() {
		t.Fatal("zero Counter must be invalid")
	}
	h.Inc()
	h.Add(4)
	if h.Value() != 5 || c.Get("x") != 5 {
		t.Fatalf("handle value = %d, Get = %d, want 5", h.Value(), c.Get("x"))
	}
	// A second Handle for the same name aliases the same slot.
	h2 := c.Handle("x")
	h2.Inc()
	if h.Value() != 6 {
		t.Fatal("handles for the same name must alias")
	}
	// Name-keyed reads see the same slot as the handle.
	if c.Snapshot()["x"] != 6 {
		t.Fatal("Snapshot must read the interned slot")
	}
}

func TestComponentHandles(t *testing.T) {
	c := NewCounters()
	hs := c.ComponentHandles("mem.access.")
	hs[GPU].Add(7)
	hs[Copy].Inc()
	if c.Get("mem.access.GPU") != 7 || c.Get("mem.access.Copy") != 1 || c.Get("mem.access.CPU") != 0 {
		t.Fatalf("component handle names wrong: %v", c.Snapshot())
	}
}

// Interning a handle must not leak zero-valued counters into Snapshot-based
// reporting paths: TakeDelta and Merge only surface counters that moved.
func TestZeroValuedHandlesStayQuiet(t *testing.T) {
	c := NewCounters()
	c.Handle("quiet")
	c.Handle("loud").Add(3)
	prev := map[string]uint64{}
	if d := c.TakeDelta(prev); len(d) != 1 || d["loud"] != 3 {
		t.Fatalf("delta = %v, want only loud", d)
	}
	dst := NewCounters()
	dst.Merge(c)
	if _, ok := dst.Snapshot()["quiet"]; ok {
		t.Fatal("Merge must skip zero-valued counters")
	}
}

// Regression: TakeDelta must sync prev for every counter, including ones
// whose value did not change, so a counter that later moves reports only
// the new movement.
func TestTakeDeltaAlwaysSyncsPrev(t *testing.T) {
	c := NewCounters()
	c.Handle("a").Add(5)
	c.Handle("b").Add(2)
	prev := map[string]uint64{}
	if d := c.TakeDelta(prev); d["a"] != 5 || d["b"] != 2 {
		t.Fatalf("first delta = %v", d)
	}
	// Phase boundary where only a moves; prev must still track b.
	c.Handle("a").Add(1)
	if d := c.TakeDelta(prev); d["a"] != 1 || len(d) != 1 {
		t.Fatalf("second delta = %v, want a:1 only", d)
	}
	if prev["b"] != 2 {
		t.Fatalf("prev[b] = %d, want synced to 2", prev["b"])
	}
	// b moves now; its delta must be relative to the last TakeDelta, not
	// to the last time b itself changed.
	c.Handle("b").Add(4)
	if d := c.TakeDelta(prev); d["b"] != 4 || len(d) != 1 {
		t.Fatalf("third delta = %v, want b:4 only", d)
	}
}

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Handle("a").Add(5)
	c.Handle("a").Inc()
	c.Handle("b").Inc()
	if c.Get("a") != 6 || c.Get("b") != 1 || c.Get("missing") != 0 {
		t.Fatal("counter values wrong")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
	d := NewCounters()
	d.Handle("b").Add(10)
	d.Handle("c").Add(3)
	c.Merge(d)
	if c.Get("b") != 11 || c.Get("c") != 3 {
		t.Fatal("merge wrong")
	}
	if s := c.String(); len(s) == 0 {
		t.Fatal("string empty")
	}
}
