package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"

	simmetrics "repro/internal/metrics"
)

// modules are the internal packages whose CPU self time is reported; the
// list is fixed so every traced run prints the same metric names.
var modules = []string{
	"bench", "config", "core", "cpucore", "device", "experiments", "fsx", "gpucore",
	"harness", "isa", "journal", "memory", "metrics", "pcie", "server", "sim", "stats",
	"suites", "sweep", "trace", "vm", "workload",
}

// tracer collects what the traced run measures: spans the benchmark
// records around each layer call, a CPU profile per traced window folded
// into layers, and runtime/metrics deltas over those windows. Spans are
// kept in memory and written out when the run ends.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	prof    bytes.Buffer
	rtStart rtSnap
	simWin0 float64

	profiles [][]byte           // one gzipped CPU profile per window
	self     map[string]float64 // CPU seconds per layer
	rt       rtSnap             // summed deltas
	simWins  float64            // sim_engine_windows_total delta
}

// span is one timed call into a layer; Parent is the index of the span
// that caused it (-1 for a root).
type span struct {
	Name    string  `json:"name"`
	Parent  int     `json:"parent"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

func newTracer() *tracer { return &tracer{t0: time.Now(), self: map[string]float64{}} }

// begin opens a span and returns its index; a nil tracer records nothing.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartMs: ms(time.Since(t.t0)), EndMs: -1})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].EndMs = ms(time.Since(t.t0))
	return time.Duration((t.spans[i].EndMs - t.spans[i].StartMs) * 1e6)
}

// total sums the durations of closed spans with this name, in seconds.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := 0.0
	for _, sp := range t.spans {
		if sp.Name == name && sp.EndMs >= 0 {
			s += (sp.EndMs - sp.StartMs) / 1e3
		}
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// startWindow begins a traced window: CPU profiling on, counters read.
func (t *tracer) startWindow() error {
	t.prof.Reset()
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	t.rtStart = readRuntime()
	t.simWin0 = simCounter("sim_engine_windows_total")
	return nil
}

// stopWindow ends the traced window and folds its profile.
func (t *tracer) stopWindow() error {
	pprof.StopCPUProfile()
	t.rt = t.rt.plus(readRuntime().minus(t.rtStart))
	t.simWins += simCounter("sim_engine_windows_total") - t.simWin0
	prof := append([]byte(nil), t.prof.Bytes()...)
	t.profiles = append(t.profiles, prof)
	layers, err := foldProfile(prof)
	if err != nil {
		return err
	}
	for l, s := range layers {
		t.self[l] += s
	}
	return nil
}

// setLayers reports the profile and runtime layers, per traced op.
func (t *tracer) setLayers(e *env, ops float64) {
	total, named := 0.0, 0.0
	for l, s := range t.self {
		total += s
		if l != layerOther && l != layerPerfbench {
			named += s
		}
	}
	for _, m := range modules {
		e.setLayer(m+".self_s", "s", t.self[m]/ops)
	}
	e.setLayer("runtime.gc_self_s", "s", t.self[layerGC]/ops)
	e.setLayer("perfbench.self_s", "s", t.self[layerPerfbench]/ops)
	e.setLayer("other.self_s", "s", t.self[layerOther]/ops)
	e.setLayer("profile.cpu_s", "s", total/ops)
	// The share of the program's own CPU time: the load generator is not
	// the system under test.
	frac := 0.0
	if prog := total - t.self[layerPerfbench]; prog > 0 {
		frac = named / prog
	}
	e.setLayer("profile.named_frac", "ratio", frac)
	e.setLayer("runtime.alloc_gb", "GB", t.rt.allocBytes/1e9/ops)
	e.setLayer("runtime.gc_cycles", "count", t.rt.gcCycles/ops)
	gcFrac := 0.0
	if t.rt.cpuTotal > 0 {
		gcFrac = t.rt.cpuGC / t.rt.cpuTotal
	}
	e.setLayer("runtime.gc_cpu_frac", "ratio", gcFrac)
	e.setLayer("sim.par_windows", "count", t.simWins/ops)
	e.note("profile: %.2f CPU s over %d traced window(s); of the program's share (all but perfbench.self_s) %.1f%% is in named modules and runtime.gc",
		total, len(t.profiles), 100*frac)
}

// write dumps the spans as JSON and each window's CPU profile (readable
// with `go tool pprof`) under workDir, named after the workload and seed.
func (t *tracer) write(e *env, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := filepath.Join(workDir, fmt.Sprintf("%s-seed%d", workload, e.seed))
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+"-spans.json", data, 0o644); err != nil {
		return err
	}
	for i, p := range t.profiles {
		if err := os.WriteFile(fmt.Sprintf("%s-cpu%d.pprof", base, i), p, 0o644); err != nil {
			return err
		}
	}
	e.note("spans and CPU profiles: %s-*", base)
	return nil
}

// rtSnap holds the runtime/metrics the traced run reports.
type rtSnap struct {
	allocBytes, gcCycles, cpuGC, cpuTotal float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSnap {
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return rtSnap{val(samples[0]), val(samples[1]), val(samples[2]), val(samples[3])}
}

func (a rtSnap) minus(b rtSnap) rtSnap {
	return rtSnap{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.cpuGC - b.cpuGC, a.cpuTotal - b.cpuTotal}
}

func (a rtSnap) plus(b rtSnap) rtSnap {
	return rtSnap{a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles, a.cpuGC + b.cpuGC, a.cpuTotal + b.cpuTotal}
}

// simCounter reads one series of the simulator's in-process registry.
func simCounter(key string) float64 { return simmetrics.Default.Snapshot()[key] }
