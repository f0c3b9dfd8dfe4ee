package core

import (
	"math/rand"
	"testing"

	"repro/internal/memory"
	"repro/internal/stats"
)

// Map-based reference implementations of the footprint and the Section
// V-C classifier: the oracle the dense tables are differentially tested
// against.

type refFootprint struct {
	lineBytes int
	foot      map[memory.Addr]stats.ComponentSet
}

func newRefFootprint(lineBytes int) *refFootprint {
	return &refFootprint{lineBytes: lineBytes, foot: map[memory.Addr]stats.ComponentSet{}}
}

func (r *refFootprint) touch(comp stats.Component, addr memory.Addr, size int) {
	n := memory.LinesSpanned(addr, size, r.lineBytes)
	base := memory.LineAddr(addr, r.lineBytes)
	for i := 0; i < n; i++ {
		l := base + memory.Addr(i*r.lineBytes)
		r.foot[l] = r.foot[l].Set(comp)
	}
}

func (r *refFootprint) partition() map[stats.ComponentSet]uint64 {
	out := map[stats.ComponentSet]uint64{}
	for _, set := range r.foot {
		out[set] += uint64(r.lineBytes)
	}
	return out
}

type refHist struct {
	seen, lastWrite, pendingWrite bool
	lastStage                     int
}

type refClassifier struct {
	m      map[memory.Addr]*refHist
	counts [NumClasses]uint64
	total  uint64
}

func (cl *refClassifier) observe(line memory.Addr, write bool, stage int) {
	cl.total++
	h := cl.m[line]
	if h == nil {
		h = &refHist{}
		cl.m[line] = h
	}
	pair := new(Classifier).pairClass
	if h.seen && h.pendingWrite {
		cl.counts[ClassCompulsory]--
		cl.counts[pair(true, stage-h.lastStage)]++
		h.pendingWrite = false
	}
	var c Class
	switch {
	case !h.seen, write:
		c = ClassCompulsory
	default:
		c = pair(h.lastWrite, stage-h.lastStage)
	}
	cl.counts[c]++
	h.seen, h.lastWrite, h.lastStage = true, write, stage
	h.pendingWrite = write && c == ClassCompulsory
}

const gib = memory.Addr(1) << 30

// randRange draws a touch range from both simulated address spaces (CPU
// memory below 4 GiB, GPU memory above it, as in the discrete system),
// biased towards the 4 GiB boundary and towards ranges that straddle
// line boundaries.
func randRange(rng *rand.Rand) (memory.Addr, int) {
	var addr memory.Addr
	switch rng.Intn(4) {
	case 0: // CPU space, low addresses
		addr = memory.Addr(rng.Int63n(1 << 22))
	case 1: // GPU space
		addr = 4*gib + memory.Addr(rng.Int63n(1<<22))
	case 2: // straddling the 4 GiB boundary
		addr = 4*gib - memory.Addr(rng.Intn(1024))
	default: // near the top of the 8 GiB range
		addr = 8*gib - memory.Addr(1+rng.Intn(1<<20))
	}
	size := 1 + rng.Intn(8)
	if rng.Intn(3) == 0 {
		size = 1 + rng.Intn(1024) // multi-line, usually unaligned
	}
	if end := 8 * gib; addr+memory.Addr(size) > end {
		size = int(end - addr)
	}
	return addr, size
}

func checkPartition(t *testing.T, what string, got, want map[stats.ComponentSet]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: partition %v, want %v", what, got, want)
	}
	for set, n := range want {
		if got[set] != n {
			t.Fatalf("%s: partition %v, want %v", what, got, want)
		}
	}
}

func TestDenseFootprintMatchesMapReference(t *testing.T) {
	const lineBytes = 128
	rng := rand.New(rand.NewSource(1))
	c := NewCollector(lineBytes, 1)
	shards := [2]*FootprintShard{NewFootprintShard(lineBytes), NewFootprintShard(lineBytes)}
	ref := newRefFootprint(lineBytes)
	for i := 0; i < 20000; i++ {
		comp := stats.Component(rng.Intn(int(stats.NumComponents)))
		addr, size := randRange(rng)
		ref.touch(comp, addr, size)
		switch rng.Intn(3) {
		case 0:
			c.Touch(comp, addr, size)
		default:
			shards[rng.Intn(2)].Touch(comp, addr, size)
		}
	}
	// Build a second collector with the same direct touches, and merge the
	// shards in the opposite order: the union must not depend on it.
	c2 := NewCollector(lineBytes, 1)
	c2.foot.merge(&c.foot)
	c.MergeFootprint(shards[0])
	c.MergeFootprint(shards[1])
	c2.MergeFootprint(shards[1])
	c2.MergeFootprint(shards[0])

	want := ref.partition()
	wantBytes := uint64(len(ref.foot)) * lineBytes
	for name, col := range map[string]*Collector{"shard 0 first": c, "shard 1 first": c2} {
		checkPartition(t, name, col.FootprintPartition(), want)
		if got := col.FootprintBytes(); got != wantBytes {
			t.Fatalf("%s: footprint %d bytes, want %d", name, got, wantBytes)
		}
	}
}

func TestDenseClassifierMatchesMapReference(t *testing.T) {
	const lineBytes = 128
	rng := rand.New(rand.NewSource(2))
	cl := NewClassifier(lineBytes)
	ref := &refClassifier{m: map[memory.Addr]*refHist{}}
	stage := 1
	for i := 0; i < 50000; i++ {
		if rng.Intn(500) == 0 {
			stage += 1 + rng.Intn(2)
		}
		addr, _ := randRange(rng)
		line := memory.LineAddr(addr, lineBytes)
		write := rng.Intn(3) == 0
		cl.Observe(line, write, stage)
		ref.observe(line, write, stage)
	}
	if cl.Counts() != ref.counts || cl.Total() != ref.total {
		t.Fatalf("counts %v (total %d), want %v (total %d)", cl.Counts(), cl.Total(), ref.counts, ref.total)
	}
}

// TestCollectorTouchZeroAlloc: once a line's leaf exists, recording a
// touch is a table store — no hashing, no allocation.
func TestCollectorTouchZeroAlloc(t *testing.T) {
	c := NewCollector(128, 1)
	c.Touch(stats.GPU, 4*gib, 1<<16) // allocate the leaves
	var i memory.Addr
	if a := testing.AllocsPerRun(1000, func() {
		i = (i + 4) % (1 << 16)
		c.Touch(stats.Component(i%3), 4*gib+i, 8)
	}); a != 0 {
		t.Fatalf("Collector.Touch allocates %.1f/op, want 0", a)
	}
}

// TestClassifierObserveZeroAlloc: the classifier keeps each line's
// history by value in its table; observing a line on a touched leaf
// allocates nothing.
func TestClassifierObserveZeroAlloc(t *testing.T) {
	cl := NewClassifier(128)
	cl.Observe(0, false, 1) // allocate the first leaf
	var i memory.Addr
	if a := testing.AllocsPerRun(1000, func() {
		i = (i + 1) % memory.TableLeaf
		cl.Observe(i*128, i%5 == 0, int(i/64))
	}); a != 0 {
		t.Fatalf("Classifier.Observe allocates %.1f/op, want 0", a)
	}
}

// BenchmarkCollectorTouch measures footprint recording: one 4-byte touch
// per op, sweeping a 1 MB buffer so consecutive touches mostly share a
// line, as a kernel's lanes do.
func BenchmarkCollectorTouch(b *testing.B) {
	c := NewCollector(128, 1)
	c.Touch(stats.GPU, 0, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Touch(stats.GPU, memory.Addr(i*4)&(1<<20-1), 4)
	}
}

// BenchmarkClassifierObserve measures one off-chip access classification
// over a 4 MB working set of lines with stage changes every 64k accesses.
func BenchmarkClassifierObserve(b *testing.B) {
	cl := NewClassifier(128)
	const lines = 1 << 15
	for i := 0; i < lines; i++ {
		cl.Observe(memory.Addr(i*128), false, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := (i * 7919) % lines
		cl.Observe(memory.Addr(l*128), i%4 == 0, 2+i>>16)
	}
}
