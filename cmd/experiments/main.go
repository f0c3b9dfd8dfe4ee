// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-exp all|table1|table2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|ablation|faults]
//	            [-only NAME[,NAME...]] [-csv DIR] [-json FILE] [-q] [-metrics]
//	            [-cpuprofile FILE] [-memprofile FILE] [-pprof ADDR] [run flags]
//
// Figures 4-10 come from one shared sweep of every benchmark in copy and
// limited-copy mode (plus each benchmark's restructured organizations);
// Figure 3 additionally runs the kmeans restructured organizations, and
// Figure 10 compares every measured overlapped organization against the
// Eq. 1 Rco bound from its baseline run. A run that fails is footnoted in
// the figures instead of aborting the sweep; see -exp faults for the
// curated degradation matrix. -csv and -json export the sweep's rows for
// external tooling.
//
// The run flags — -size -jobs -par -timeout -max-events -stall -state
// -resume -inject -trace -flame -progress — are shared with cmd/hetsim
// and documented in cmd/internal/cli. They apply to the shared sweep;
// -state DIR journals it into DIR/sweep.journal.
//
// -cpuprofile/-memprofile write pprof profiles of the command itself
// (the simulator host process, not the simulated machine); -pprof serves
// net/http/pprof on the given address (e.g. localhost:6060) for live
// inspection of a long sweep.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/cmd/internal/cli"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/metrics"

	_ "repro/internal/suites/lonestar"
	_ "repro/internal/suites/pannotia"
	_ "repro/internal/suites/parboil"
	_ "repro/internal/suites/rodinia"
)

func main() {
	os.Exit(run())
}

// run holds the real main so deferred cleanup (profile flushes) survives
// error exits; main turns its return into the process exit code.
func run() int {
	exp := flag.String("exp", "all", "which experiment: all, table1, table2, fig3..fig10, ablation, faults (comma-separated)")
	csvDir := flag.String("csv", "", "also export the sweep as CSV files into this directory")
	jsonPath := flag.String("json", "", "also export the sweep's rows and summaries as JSON to this file")
	only := flag.String("only", "", "restrict the shared sweep to these full benchmark names (comma-separated)")
	quiet := flag.Bool("q", false, "suppress progress output")
	metricsDump := flag.Bool("metrics", false, "print run-lifecycle metrics (Prometheus text format) to stderr at exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the command to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile of the command to this file at exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	rf := cli.Register(flag.CommandLine)
	flag.Parse()

	if *metricsDump {
		// Deferred first so it runs after the profile flushes; stdout
		// (figures) stays byte-identical with the flag on or off.
		defer metrics.Default.WriteText(os.Stderr)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "-cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
			}
		}()
	}
	if *pprofAddr != "" {
		go func() {
			// net/http/pprof registers its handlers on DefaultServeMux.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "-pprof: %v\n", err)
			}
		}()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
		}
	}

	size, budget := rf.Size, rf.Budget

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	sel := func(name string) bool { return all || want[name] }

	if sel("table1") {
		fmt.Println(experiments.Table1())
	}
	if sel("table2") {
		fmt.Println(experiments.Table2Text())
	}
	if sel("ablation") {
		if !*quiet {
			fmt.Fprintln(os.Stderr, "running ablation sweeps...")
		}
		fmt.Println(experiments.AblationText(size))
	}
	if sel("faults") {
		if !*quiet {
			fmt.Fprintln(os.Stderr, "running fault-injection sweep (baseline + injected per case)...")
		}
		fmt.Println(experiments.FaultSweepText(experiments.FaultSweep(size, budget)))
	}
	if sel("fig3") {
		if !*quiet {
			fmt.Fprintln(os.Stderr, "running kmeans case study (4 organizations)...")
		}
		rows, errs := experiments.Fig3(size, budget)
		fmt.Println(experiments.Fig3Text(rows, errs))
	}

	needSweep := false
	for _, f := range []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"} {
		if sel(f) {
			needSweep = true
		}
	}
	if !needSweep {
		return 0
	}
	opts := rf.Opts()
	opts.OnProgress = func(name, mode string) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "running %s (%s)...\n", name, mode)
		}
	}
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			if n = strings.TrimSpace(n); n != "" {
				opts.Only = append(opts.Only, n)
			}
		}
	}
	state, err := rf.OpenState(func(dir string, resume bool) (*harness.RunLog, error) {
		return experiments.OpenState(dir, resume, size, opts)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer state.Close()
	opts.State = state
	stop := cli.Interruptible(&opts)
	res, errs := experiments.RunSweep(size, opts)
	interrupted := stop()
	for i := range errs {
		fmt.Fprintf(os.Stderr, "run failed: %v\n", &errs[i])
	}
	if err := state.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "warning: checkpoint journaling failed mid-sweep: %v\n", err)
		fmt.Fprintln(os.Stderr, "warning: the sweep continued without persistence (degraded); results below are complete but an interrupted re-run cannot resume past this point")
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "sweep interrupted: %d of %d runs completed; output below is a partial report\n",
			len(res.Runs), len(res.Runs)+len(res.Skipped))
		rf.ResumeHint()
	}
	if err := rf.WriteTrace(res.Traces); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if rf.TracePath != "" && !*quiet {
		fmt.Fprintf(os.Stderr, "wrote trace to %s\n", rf.TracePath)
	}
	if *csvDir != "" {
		if err := experiments.WriteCSVs(*csvDir, res); err != nil {
			fmt.Fprintf(os.Stderr, "csv export failed: %v\n", err)
			return 1
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote CSVs to %s\n", *csvDir)
		}
	}
	if *jsonPath != "" {
		if err := experiments.WriteJSON(*jsonPath, res); err != nil {
			fmt.Fprintf(os.Stderr, "json export failed: %v\n", err)
			return 1
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote JSON to %s\n", *jsonPath)
		}
	}
	if sel("fig4") {
		fmt.Println(experiments.Fig4Text(res))
	}
	if sel("fig5") {
		fmt.Println(experiments.Fig5Text(res))
	}
	if sel("fig6") {
		fmt.Println(experiments.Fig6Text(res))
	}
	if sel("fig7") {
		fmt.Println(experiments.Fig7Text(res))
	}
	if sel("fig8") {
		fmt.Println(experiments.Fig8Text(res))
	}
	if sel("fig9") {
		fmt.Println(experiments.Fig9Text(res))
	}
	if sel("fig10") {
		fmt.Println(experiments.Fig10Text(res))
	}
	if interrupted {
		// 128 + SIGINT, the conventional interrupted-process exit code;
		// scripts (and the resume test) distinguish it from run failures.
		return 130
	}
	return 0
}
