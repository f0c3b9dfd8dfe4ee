// Command hetsim runs benchmarks on one simulated system configuration
// and prints the full analysis report — the smallest way to poke at the
// simulator.
//
// Usage:
//
//	hetsim -bench rodinia/kmeans[,parboil/spmv,...] [-mode copy|limited-copy|async-streams|parallel-chunked]
//	       [-json FILE] [-counters] [run flags]
//	hetsim -list
//
// -bench takes a comma-separated list, run in one mode; the reports print
// in the order listed. -json exports every outcome (report, attempts,
// errors) as a JSON array. -counters dumps every hardware counter after
// each report; replayed runs carry no live machine, so it prints a note
// for them instead.
//
// The run flags — -size -jobs -par -timeout -max-events -stall -state
// -resume -inject -trace -flame -progress — are shared with
// cmd/experiments and documented in cmd/internal/cli; the runs go through
// the same checkpointed run loop as the figure sweeps
// (experiments.RunSlots). -state DIR journals into DIR/hetsim.journal.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/cmd/internal/cli"
	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/harness"

	_ "repro/internal/suites/lonestar"
	_ "repro/internal/suites/pannotia"
	_ "repro/internal/suites/parboil"
	_ "repro/internal/suites/rodinia"
)

func main() {
	name := flag.String("bench", "", "benchmark full name (suite/name), or a comma-separated list")
	modeFlag := flag.String("mode", "copy", "copy, limited-copy, async-streams, or parallel-chunked")
	jsonPath := flag.String("json", "", "export every run's outcome as a JSON array to this file")
	counters := flag.Bool("counters", false, "also dump every hardware counter")
	list := flag.Bool("list", false, "list available benchmarks")
	rf := cli.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		fmt.Printf("%-26s %-42s %s\n", "NAME", "MODES", "DESCRIPTION")
		for _, b := range bench.All() {
			info := b.Info()
			var modes []string
			for _, m := range info.Modes() {
				modes = append(modes, m.String())
			}
			fmt.Printf("%-26s %-42s %s\n", info.FullName(), strings.Join(modes, ","), info.Desc)
		}
		return
	}

	mode, err := bench.ParseMode(*modeFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}

	var benches []bench.Benchmark
	var slots []experiments.Slot
	for _, n := range strings.Split(*name, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		b, ok := bench.Get(n)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", n)
			fmt.Fprintln(os.Stderr, "use -list to see available benchmarks")
			os.Exit(1)
		}
		benches = append(benches, b)
		slots = append(slots, experiments.Slot{Bench: b, Mode: mode})
	}
	if len(benches) == 0 {
		fmt.Fprintln(os.Stderr, "no benchmark given; use -bench NAME[,NAME...] or -list")
		os.Exit(2)
	}

	opts := rf.Opts()
	state, err := rf.OpenState(func(dir string, resume bool) (*harness.RunLog, error) {
		return experiments.OpenListState(dir, resume, rf.Size, mode, benches, opts)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts.State = state

	// Run every benchmark on the worker pool; print in the order listed.
	// The counter dump is taken while each run's machine is still live.
	ctrs := make([]string, len(slots))
	var done func(int, *harness.Outcome)
	if *counters {
		done = func(i int, out *harness.Outcome) {
			if out.Sys != nil {
				ctrs[i] = out.Sys.Ctr.String()
			}
		}
	}
	stop := cli.Interruptible(&opts)
	outs, traces := experiments.RunSlots(rf.Size, slots, opts, done)
	interrupted := stop()
	if err := state.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "warning: checkpoint journaling failed mid-run: %v\n", err)
	}
	state.Close()

	if err := rf.WriteTrace(traces); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *jsonPath != "" {
		var docs []harness.OutcomeJSON
		for _, out := range outs {
			if out == nil {
				continue // never dispatched (interrupted before start)
			}
			docs = append(docs, out.JSON())
		}
		data, err := json.MarshalIndent(docs, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "json export failed: %v\n", err)
			os.Exit(1)
		}
	}

	failed := false
	skipped := 0
	for i, out := range outs {
		if out == nil {
			skipped++
			fmt.Fprintf(os.Stderr, "skipped (interrupted before start): %s\n", benches[i].Info().FullName())
			continue
		}
		if out.Err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "run failed: %v\n", out.Err)
			if len(out.Err.Stack) > 0 {
				fmt.Fprintf(os.Stderr, "%s\n", out.Err.Stack)
			}
			continue
		}
		if out.Degraded {
			fmt.Fprintf(os.Stderr, "note: ran at size %s after exceeding the budget at %s (%d attempts)\n",
				out.Size, rf.Size, out.Attempts)
		}
		if rf.Fault.Active() {
			fmt.Printf("injected faults: %s\n", rf.Fault)
		}
		fmt.Print(out.Report.String())
		if *counters {
			fmt.Println("\nhardware counters:")
			if ctrs[i] == "" {
				fmt.Println("(replayed from journal; live counters not recorded)")
			} else {
				fmt.Print(ctrs[i])
			}
		}
	}
	if interrupted || skipped > 0 {
		rf.ResumeHint()
		os.Exit(130)
	}
	if failed {
		os.Exit(1)
	}
}
