package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bench"
	"repro/internal/harness"
)

// stratum is one class of benchmark run-medium draws from.
type stratum struct {
	mode bench.Mode
	pool [2]string
}

var mediumStrata = []stratum{
	{bench.ModeCopy, [2]string{"parboil/stencil", "parboil/fft"}},         // regular and dense
	{bench.ModeCopy, [2]string{"parboil/spmv", "lonestar/sssp"}},          // irregular graph or sparse
	{bench.ModeLimitedCopy, [2]string{"rodinia/srad", "parboil/stencil"}}, // fault-heavy
}

// pick is one drawn (benchmark, mode).
type pick struct {
	b    bench.Benchmark
	name string
	mode bench.Mode
}

// drawMedium returns the seed's two complementary rounds: round A takes
// one member of each stratum, round B the other. A run alternates them,
// so the seed decides which programs share a round and which runs first,
// while every seed offers the same total work — on a 2-vCPU host the
// strata members differ in cost by more than the benchmark's bounds.
func drawMedium(seed int64) ([2][]pick, error) {
	rng := rand.New(rand.NewSource(seed))
	var rounds [2][]pick
	for _, st := range mediumStrata {
		first := rng.Intn(2)
		for side := 0; side < 2; side++ {
			name := st.pool[(first+side)%2]
			b, ok := bench.Get(name)
			if !ok || !b.Info().Supports(st.mode) {
				return rounds, fmt.Errorf("run-medium: %s cannot run %s", name, st.mode)
			}
			rounds[side] = append(rounds[side], pick{b, name, st.mode})
		}
	}
	return rounds, nil
}

var runMedium = workload{
	name: "run-medium",
	setup: func(e *env) error {
		_, err := drawMedium(e.seed)
		return err
	},
	run: runMediumPhase,
}

// runMediumPhase alternates the two rounds, each three medium runs back
// to back through harness.Run with Parallel = nproc.
func runMediumPhase(e *env) error {
	rounds, err := drawMedium(e.seed)
	if err != nil {
		return err
	}
	if e.traced {
		zeroLayers(e)
	}
	tr := newTracer()
	var walls, tracedWalls [2][]float64
	var lats [2][][]float64
	var counts simCounts
	start := time.Now()
	for i, last := 0, 0.0; another(e, i, start, last); i++ {
		side, traced := i%2, tracedOp(e, i)
		var t *tracer
		if traced {
			t = tr
			if err := tr.startWindow(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		root := t.begin("round", -1)
		var opLats []float64
		for _, p := range rounds[side] {
			sp := t.begin("harness.Run "+p.name+" "+p.mode.String(), root)
			out := harness.Run(harness.Spec{Bench: p.b, Mode: p.mode, Size: bench.SizeMedium, Parallel: e.nproc})
			t.end(sp)
			key := reportKey(p.name, p.mode, bench.SizeMedium)
			ok := out.Err == nil && !out.Degraded && goldenOK(key, reportDigest(out.Report))
			e.check(ok, "%s: err=%v degraded=%v (or digest mismatch)", key, out.Err, out.Degraded)
			if !traced {
				opLats = append(opLats, out.Wall.Seconds())
				continue
			}
			counts.runs++
			counts.retries += uint64(out.Attempts - 1)
			counts.events += out.Events
			counts.runSecs += out.Wall.Seconds()
			if out.Report != nil {
				counts.addReport(out.Report)
				counts.footprint += out.Report.FootprintBytes
			}
		}
		t.end(root)
		last = time.Since(t0).Seconds()
		if traced {
			if err := tr.stopWindow(); err != nil {
				return err
			}
			tracedWalls[side] = append(tracedWalls[side], last)
		} else {
			walls[side] = append(walls[side], last)
			lats[side] = append(lats[side], opLats)
		}
	}
	for side, r := range rounds {
		for _, p := range r {
			e.note("round %c: %s %s medium", 'A'+side, p.name, p.mode)
		}
	}
	e.setE2E("wall_s", "s", pairWall(walls))
	e.note("wall_s: mean of the rounds' medians; untraced rounds A %v, B %v", fmtSecs(walls[0]), fmtSecs(walls[1]))
	setReqs(e, scale(pairLats(lats), 1e3), "medium runs in complete A/B pairs of untraced rounds (harness.Run wall)")
	if e.traced {
		tr.setLayers(e, 2)
		counts.set(e, 2)
		e.setLayer("tracing.overhead_frac", "ratio", overhead(walls, tracedWalls))
		e.note("per-layer: per round, over traced rounds A %v, B %v", fmtSecs(tracedWalls[0]), fmtSecs(tracedWalls[1]))
		if err := tr.write(e, "run-medium"); err != nil {
			return err
		}
	}
	return nil
}
