// Package cli declares the run flags cmd/hetsim and cmd/experiments
// share — once, with one validation and the same checkpoint messages —
// so the two front ends over experiments.RunSlots cannot drift apart.
// Each command keeps only its own flags (what to run, and its -json
// document).
//
// Runs execute on -jobs workers (default GOMAXPROCS), and -par
// additionally parallelizes each run internally; output is byte-identical
// for every -jobs and -par value. Every run executes under the
// fault-tolerant harness: a panic, deadlock, or exceeded -timeout or
// -max-events budget fails that run with a diagnostic instead of crashing
// or hanging, and a budget-exceeded medium run is retried once at small.
// -stall kills a run whose simulated clock stops advancing for the given
// wall-clock window while events still execute (a livelock). -inject
// degrades the simulated hardware for every run, e.g.
// pcie=0.25,fault=8,dram=0:100:600; a plan that leaves either machine
// invalid, like an unknown -size, exits 2 before any run.
//
// -trace records every run into a Chrome trace-event / Perfetto JSON file
// (one process per run; open it at https://ui.perfetto.dev). -flame
// prints a text flame summary of the trace to stderr. -progress emits
// live per-run start/retry/done lines on stderr; stdout stays
// byte-identical with it on or off.
//
// -state DIR appends every completed run durably to a journal in DIR, and
// -resume replays it — re-running only the missing runs — to print output
// byte-identical to an uninterrupted invocation. The journal is
// fingerprinted by the run configuration; resuming under a different one
// exits 2. The first SIGINT/SIGTERM stops dispatching new runs and drains
// (and journals) the in-flight ones; a second aborts those too; a third
// restores default signal behavior. An interrupted invocation exits 130.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Flags holds the shared run flags once parsed.
type Flags struct {
	Size      bench.Size
	Budget    harness.Budget
	Fault     *harness.FaultPlan
	Jobs, Par int
	Stall     time.Duration
	StateDir  string
	Resume    bool
	TracePath string
	Flame     bool
	Progress  bool
}

// Register declares the shared flags on fs (the commands pass
// flag.CommandLine). -size and -inject are validated as they parse, so a
// bad value is a usage error (exit 2) before anything runs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.Func("size", "input `scale`: small (default) or medium", func(s string) (err error) {
		f.Size, err = bench.ParseSize(s)
		return err
	})
	fs.IntVar(&f.Jobs, "jobs", 0, "worker-pool size for runs (0 = GOMAXPROCS, 1 = serial)")
	fs.IntVar(&f.Par, "par", 0, "intra-run simulation workers per run (0/1 = serial; results byte-identical for every value)")
	fs.DurationVar(&f.Budget.Timeout, "timeout", 0, "wall-clock budget per run (0 = unlimited)")
	fs.Uint64Var(&f.Budget.MaxEvents, "max-events", 0, "simulation event budget per run (0 = unlimited)")
	fs.DurationVar(&f.Stall, "stall", 0, "kill a run whose simulated time stops advancing for this long (0 = disabled)")
	fs.StringVar(&f.StateDir, "state", "", "checkpoint completed runs into a journal in `DIR` for crash-safe resume")
	fs.BoolVar(&f.Resume, "resume", false, "replay the -state journal and run only the missing runs")
	fs.Func("inject", "hardware fault `plan` for every run, e.g. pcie=0.25,fault=8,dram=0:100:600", func(s string) (err error) {
		f.Fault, err = harness.ParseFaultPlan(s)
		return err
	})
	fs.StringVar(&f.TracePath, "trace", "", "record every run as a Chrome trace-event / Perfetto JSON trace to this file")
	fs.BoolVar(&f.Flame, "flame", false, "print a text flame summary of the trace to stderr (implies tracing)")
	fs.BoolVar(&f.Progress, "progress", false, "emit live per-run progress lines on stderr")
	return f
}

// Opts returns sweep options carrying the flags: budgets, fault plan,
// worker counts, stall window, tracing, and a stderr progress tracker
// under -progress.
func (f *Flags) Opts() experiments.SweepOpts {
	opts := experiments.SweepOpts{
		Budget:   f.Budget,
		Fault:    f.Fault,
		Jobs:     f.Jobs,
		Parallel: f.Par,
		Stall:    f.Stall,
		Trace:    f.TracePath != "" || f.Flame,
	}
	if f.Progress {
		opts.Progress = sweep.NewTracker(os.Stderr, 0)
	}
	return opts
}

// OpenState opens the -state checkpoint journal through open, which gets
// the directory and the -resume setting, and announces a resumed journal
// on stderr. Without -state it returns a nil log, which every RunLog
// method ignores — or, under -resume, a usage error. The commands exit 2
// on its error.
func (f *Flags) OpenState(open func(dir string, resume bool) (*harness.RunLog, error)) (*harness.RunLog, error) {
	if f.StateDir == "" {
		if f.Resume {
			return nil, errors.New("-resume requires -state DIR")
		}
		return nil, nil
	}
	state, err := open(f.StateDir, f.Resume)
	if err != nil {
		return nil, fmt.Errorf("checkpoint journal: %w", err)
	}
	if state.Resumed() {
		fmt.Fprintf(os.Stderr, "resuming from %s: %d runs already journaled\n",
			state.Path(), state.ReplayedCount())
	}
	return state, nil
}

// ResumeHint tells the operator how to resume an interrupted invocation,
// when it was checkpointed.
func (f *Flags) ResumeHint() {
	if f.StateDir != "" {
		fmt.Fprintf(os.Stderr, "resume with: -state %s -resume\n", f.StateDir)
	}
}

// WriteTrace exports traces to the -trace file and prints the -flame
// summary to stderr.
func (f *Flags) WriteTrace(traces []trace.RunTrace) error {
	if f.TracePath != "" {
		if err := trace.WriteFile(f.TracePath, traces); err != nil {
			return fmt.Errorf("trace export failed: %w", err)
		}
	}
	if f.Flame {
		fmt.Fprint(os.Stderr, trace.FlameText(traces))
	}
	return nil
}

// Interruptible wires opts to SIGINT/SIGTERM: the first signal stops
// dispatch (in-flight runs drain and are journaled), the second cancels
// the in-flight runs too. The returned stop releases the handler and
// reports whether a signal arrived.
func Interruptible(opts *experiments.SweepOpts) (stop func() (interrupted bool)) {
	dispatchCtx, runCtx, release := sweep.SignalContexts(nil, os.Stderr)
	opts.Ctx, opts.RunCtx = dispatchCtx, runCtx
	return func() bool {
		// Read the interrupt state before release, which cancels both
		// contexts as part of releasing the handler.
		interrupted := dispatchCtx.Err() != nil
		release()
		return interrupted
	}
}
