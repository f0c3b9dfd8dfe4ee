package main

import (
	"strings"

	"repro/internal/core"
)

// layerUnits lists every per-layer metric with its unit. Each workload
// reports all of them, with 0 where its path never reaches the layer
// (README.md maps which workload exercises which layer).
var layerUnits = func() map[string]string {
	u := map[string]string{
		"runtime.gc_self_s": "s", "perfbench.self_s": "s", "other.self_s": "s",
		"profile.cpu_s": "s", "profile.named_frac": "ratio",
		"runtime.alloc_gb": "GB", "runtime.gc_cpu_frac": "ratio", "runtime.gc_cycles": "count",
		"sim.events": "count", "sim.events_per_s": "1/s", "sim.par_windows": "count",
		"gpucore.mem_transactions": "count", "memory.gpu_l2_hit_ratio": "ratio",
		"memory.dram_accesses": "count", "core.footprint_mb": "MB", "pcie.mb": "MB",
		"vm.gpu_faults_to_cpu": "count",
		"harness.run_s":        "s", "harness.runs": "count", "harness.retries": "count",
		"sweep.idle_frac":      "ratio",
		"experiments.render_s": "s",
		"experiments.doc_mb":   "MB",
		"fsx.ops":              "count", "fsx.sync_n": "count", "fsx.sync_s": "s",
		"fsx.write_mb": "MB", "fsx.read_mb": "MB", "fsx.read_s": "s",
		"server.admit_wait_p99_ms": "ms", "server.hit_rtt_p50_ms": "ms", "server.rejected": "count",
		"server.hit_p50_ms": "ms", "server.hit_p99_ms": "ms", "server.miss_p50_s": "s",
		"server.hits": "count", "server.misses": "count", "server.hit_mean_ms": "ms",
		"loadgen.late_p99_ms":   "ms",
		"tracing.overhead_frac": "ratio",
		"fail_frac":             "ratio",
		"host.cpu_yardstick_ms": "ms", "host.mem_yardstick_ms": "ms",
		"host.cpu_drift_frac": "ratio", "host.mem_drift_frac": "ratio",
	}
	for _, m := range modules {
		u[m+".self_s"] = "s"
	}
	return u
}()

// zeroLayers presets every per-layer metric to 0.
func zeroLayers(e *env) {
	for n, unit := range layerUnits {
		e.setLayer(n, unit, 0)
	}
}

// simCounts are the exact counts a traced operation simulated: they come
// from the reports' per-stage counter deltas, so a pure speed change
// leaves them bit-for-bit unchanged.
type simCounts struct {
	runs, retries, events                uint64
	memTx, l2Hits, l2Misses, dram, pcieB uint64
	faults, footprint                    uint64
	runSecs                              float64 // host time inside harness.Run
}

func (c *simCounts) addDeltas(d map[string]uint64) {
	c.memTx += d["gpu.mem_transactions"]
	c.l2Hits += d["gpu.l2.hits"]
	c.l2Misses += d["gpu.l2.misses"]
	c.pcieB += d["pcie.bytes"]
	c.faults += d["vm.gpu_faults_to_cpu"]
	for k, v := range d {
		if strings.Contains(k, ".access.") { // <dram>.access.<requester>
			c.dram += v
		}
	}
}

func (c *simCounts) addReport(r *core.Report) {
	for _, p := range r.Phases {
		c.addDeltas(p.Deltas)
	}
}

// set reports the counts per operation.
func (c *simCounts) set(e *env, ops float64) {
	e.setLayer("harness.runs", "count", float64(c.runs)/ops)
	e.setLayer("harness.retries", "count", float64(c.retries)/ops)
	e.setLayer("harness.run_s", "s", c.runSecs/ops)
	e.setLayer("sim.events", "count", float64(c.events)/ops)
	if c.runSecs > 0 {
		e.setLayer("sim.events_per_s", "1/s", float64(c.events)/c.runSecs)
	}
	e.setLayer("gpucore.mem_transactions", "count", float64(c.memTx)/ops)
	if c.l2Hits+c.l2Misses > 0 {
		e.setLayer("memory.gpu_l2_hit_ratio", "ratio", float64(c.l2Hits)/float64(c.l2Hits+c.l2Misses))
	}
	e.setLayer("memory.dram_accesses", "count", float64(c.dram)/ops)
	e.setLayer("core.footprint_mb", "MB", float64(c.footprint)/1e6/ops)
	e.setLayer("pcie.mb", "MB", float64(c.pcieB)/1e6/ops)
	e.setLayer("vm.gpu_faults_to_cpu", "count", float64(c.faults)/ops)
}
