package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/fsx"
	"repro/internal/harness"
	"repro/internal/sweep"
)

// sweepPairs are the benchmarks sweep-small draws from, in pairs adjacent
// in a measured small-sweep cost ranking. The seed splits every pair
// between half A and half B, and a run sweeps the two halves alternately,
// so each half is half the pool at about half its cost, and every seed
// offers the same total work. Left out are the ten most costly benchmarks
// (pannotia/color_max and color_maxmin alone cost as much as the rest of
// the registry; rodinia/kmeans, parboil/stencil, rodinia/pathfinder,
// pannotia/pr_spmv, parboil/spmv, rodinia/srad, parboil/fft, lonestar/bfs
// each run 1–2 s per mode): with them, one run would decide a half's wall
// time and the two halves would not fit in one measurement.
var sweepPairs = [][2]string{
	{"rodinia/lud", "parboil/cutcp"}, {"parboil/lbm", "lonestar/dmr"},
	{"pannotia/fw_block", "pannotia/fw"}, {"rodinia/heartwall", "rodinia/pf_float"},
	{"rodinia/pf_naive", "rodinia/nw"}, {"rodinia/mummergpu", "rodinia/cfd"},
	{"parboil/mri-q", "parboil/sgemm"}, {"rodinia/gaussian", "parboil/bfs"},
	{"rodinia/dwt2d", "rodinia/streamcluster"}, {"lonestar/bfs_wla", "lonestar/bfs_wlc"},
	{"pannotia/mis", "lonestar/bfs_wlw"}, {"lonestar/sssp_wlf", "pannotia/bc"},
	{"lonestar/sssp_wln", "rodinia/backprop"}, {"pannotia/pr", "lonestar/sssp_wlc"},
	{"pannotia/sssp_ell", "lonestar/tsp"}, {"pannotia/sssp", "lonestar/bh"},
	{"rodinia/hotspot", "lonestar/sssp"}, {"lonestar/mst", "rodinia/bfs"},
}

// drawSweep splits the pool into the seed's two halves.
func drawSweep(seed int64) ([2][]string, error) {
	rng := rand.New(rand.NewSource(seed))
	var halves [2][]string
	for _, p := range sweepPairs {
		first := rng.Intn(2)
		for side := 0; side < 2; side++ {
			name := p[(first+side)%2]
			if _, ok := bench.Get(name); !ok {
				return halves, fmt.Errorf("sweep-small: unknown benchmark %s", name)
			}
			halves[side] = append(halves[side], name)
		}
	}
	return halves, nil
}

var sweepSmall = workload{
	name: "sweep-small",
	setup: func(e *env) error {
		halves, err := drawSweep(e.seed)
		if err != nil {
			return err
		}
		// A fresh process opens its journal before the first run.
		_, state, err := openSweepState(e, fsx.OS, "setup", halves[0])
		if err != nil {
			return err
		}
		return state.Close()
	},
	run: sweepSmallPhase,
}

// openSweepState creates a fresh state dir and journal, as
// `experiments -state DIR` does.
func openSweepState(e *env, fsys fsx.FS, name string, only []string) (string, *harness.RunLog, error) {
	dir := filepath.Join(e.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	opts := sweepOpts(e, only)
	state, err := experiments.OpenStateAtFS(fsys, filepath.Join(dir, "sweep.journal"), experiments.JournalKind, false, bench.SizeSmall, opts)
	if err != nil {
		return "", nil, err
	}
	return dir, state, nil
}

func sweepOpts(e *env, only []string) experiments.SweepOpts {
	return experiments.SweepOpts{Only: only, Jobs: e.nproc, Parallel: 1}
}

// runSpans collects per-run start/finish times from sweep progress
// events, for sweep.idle_frac.
type runSpans struct {
	mu         sync.Mutex
	start      map[string]time.Time
	busy       time.Duration
	first, end time.Time
}

func (r *runSpans) event(ev sweep.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	switch ev.Kind {
	case "start":
		if r.first.IsZero() {
			r.first = now
		}
		r.start[ev.Name] = now
	case "done", "failed":
		r.busy += now.Sub(r.start[ev.Name])
		r.end = now
	}
}

// sweepSmallPhase alternates the two halves' sweeps, each into a fresh
// state dir.
func sweepSmallPhase(e *env) error {
	halves, err := drawSweep(e.seed)
	if err != nil {
		return err
	}
	if e.traced {
		zeroLayers(e)
	}
	tr := newTracer()
	tfs := newTimedFS(fsx.OS)
	var walls, tracedWalls [2][]float64
	var lats [2][][]float64
	var counts simCounts
	var idle, docMB float64
	var fsDelta fsSnap
	var figs [2]string
	start := time.Now()
	for i, last := 0, 0.0; another(e, i, start, last); i++ {
		side, traced := i%2, tracedOp(e, i)
		only := halves[side]
		var t *tracer
		var fsys fsx.FS = fsx.OS
		spans := &runSpans{start: map[string]time.Time{}}
		var fs0 fsSnap
		if traced {
			t, fsys, fs0 = tr, tfs, tfs.st.snap()
			if err := tr.startWindow(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		root := t.begin("sweep", -1)
		sp := t.begin("experiments.OpenStateAtFS", root)
		dir, state, err := openSweepState(e, fsys, fmt.Sprintf("sweep-%d", i), only)
		t.end(sp)
		if err != nil {
			return err
		}
		opts := sweepOpts(e, only)
		opts.State = state
		if traced {
			opts.Progress = sweep.NewEventTracker(spans.event)
		}
		sp = t.begin("experiments.RunSweep", root)
		res, errs := experiments.RunSweep(bench.SizeSmall, opts)
		t.end(sp)
		jerr := state.Err()
		if cerr := state.Close(); jerr == nil {
			jerr = cerr
		}
		sp = t.begin("experiments.render", root)
		text, docBytes, rerr := renderSweep(res, filepath.Join(dir, "sweep.json"))
		t.end(sp)
		t.end(root)
		last = time.Since(t0).Seconds()
		if traced {
			if err := tr.stopWindow(); err != nil {
				return err
			}
		}

		e.check(jerr == nil, "sweep %d: journal: %v", i, jerr)
		e.check(rerr == nil, "sweep %d: render: %v", i, rerr)
		e.check(len(res.Skipped) == 0, "sweep %d: %d runs skipped", i, len(res.Skipped))
		for j := range errs {
			e.check(false, "sweep %d: %v", i, &errs[j])
		}
		for mode, reps := range sweepReports(res) {
			for name, r := range reps {
				key := reportKey(name, mode, bench.SizeSmall)
				e.check(goldenOK(key, reportDigest(r)), "%s: digest mismatch", key)
			}
		}
		if figs[side] == "" {
			figs[side] = text
		} else {
			e.check(text == figs[side], "sweep %d: figure text differs from the half's first sweep", i)
		}
		os.RemoveAll(dir)

		if !traced {
			walls[side] = append(walls[side], last)
			var opLats []float64
			for _, m := range res.Runs {
				opLats = append(opLats, m.Wall.Seconds())
			}
			lats[side] = append(lats[side], opLats)
			continue
		}
		tracedWalls[side] = append(tracedWalls[side], last)
		fsDelta = fsDelta.plus(tfs.st.snap().minus(fs0))
		for _, m := range res.Runs {
			counts.runs++
			counts.retries += uint64(m.Attempts - 1)
			counts.events += m.Events
			counts.runSecs += m.Wall.Seconds()
		}
		for _, reps := range sweepReports(res) {
			for _, r := range reps {
				counts.addReport(r)
			}
		}
		for _, row := range res.JSON().Fig4.Rows {
			counts.footprint += row.TotalBytes
		}
		if span := spans.end.Sub(spans.first); span > 0 {
			idle += 1 - spans.busy.Seconds()/(float64(e.nproc)*span.Seconds())
		}
		docMB += float64(docBytes) / 1e6
	}
	for side, h := range halves {
		e.note("half %c: %d benchmarks %v", 'A'+side, len(h), h)
	}
	e.setE2E("wall_s", "s", pairWall(walls))
	e.note("wall_s: mean of the halves' medians; untraced sweeps A %v, B %v", fmtSecs(walls[0]), fmtSecs(walls[1]))
	setReqs(e, scale(pairLats(lats), 1e3), "runs inside complete A/B pairs of untraced sweeps (harness wall per run)")
	if e.traced {
		tr.setLayers(e, 2)
		counts.set(e, 2)
		setFSLayers(e, fsDelta, 2)
		e.setLayer("sweep.idle_frac", "ratio", idle/2)
		e.setLayer("experiments.render_s", "s", tr.total("experiments.render")/2)
		e.setLayer("experiments.doc_mb", "MB", docMB/2)
		e.setLayer("tracing.overhead_frac", "ratio", overhead(walls, tracedWalls))
		e.note("per-layer: per sweep, over traced sweeps A %v, B %v", fmtSecs(tracedWalls[0]), fmtSecs(tracedWalls[1]))
		if err := tr.write(e, "sweep-small"); err != nil {
			return err
		}
	}
	return nil
}

// renderSweep produces what `experiments -exp fig4,...,fig9 -json FILE`
// outputs after its sweep: the figure text and the SweepDoc JSON file,
// both written into the state dir. It returns the figure text and the
// total bytes rendered.
func renderSweep(res *experiments.Results, jsonPath string) (string, int, error) {
	figs := experiments.Fig4Text(res) + "\n" + experiments.Fig5Text(res) + "\n" +
		experiments.Fig6Text(res) + "\n" + experiments.Fig7Text(res) + "\n" +
		experiments.Fig8Text(res) + "\n" + experiments.Fig9Text(res) + "\n"
	if err := experiments.WriteJSON(jsonPath, res); err != nil {
		return figs, len(figs), err
	}
	if err := os.WriteFile(jsonPath+".txt", []byte(figs), 0o644); err != nil {
		return figs, len(figs), err
	}
	fi, err := os.Stat(jsonPath)
	if err != nil {
		return figs, len(figs), err
	}
	return figs, len(figs) + int(fi.Size()), nil
}
