package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/harness"
	"repro/internal/journal"
)

// resumeOpts is the shared sweep shape of the checkpoint/resume tests:
// small, serial, and with a restricted benchmark list so the three sweeps
// (clean, interrupted, resumed) stay quick.
func resumeOpts() SweepOpts {
	return SweepOpts{
		Only: []string{"rodinia/backprop", "rodinia/kmeans", "rodinia/bfs"},
		Jobs: 1,
	}
}

// zeroWalls clears wall-clock durations, the one nondeterministic field,
// before document comparison.
func zeroWalls(r *Results) {
	for i := range r.Runs {
		r.Runs[i].Wall = 0
	}
	for i := range r.Failed {
		r.Failed[i].Wall = 0
	}
}

// TestSweepCheckpointResume is the in-process resume acceptance test: a
// sweep canceled partway, then resumed from its journal, must produce
// figures and a JSON document identical to an uninterrupted sweep — and
// must not re-execute the journaled runs.
func TestSweepCheckpointResume(t *testing.T) {
	dir := t.TempDir()

	clean, _ := RunSweep(bench.SizeSmall, resumeOpts())

	// Interrupted sweep: cancel dispatch after the third run starts. The
	// in-flight run drains and journals (graceful-shutdown contract), so
	// the journal ends up with the first three runs.
	opts := resumeOpts()
	state, err := OpenState(dir, false, bench.SizeSmall, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	opts.State = state
	opts.Ctx = ctx
	opts.OnProgress = func(name, mode string) {
		if started.Add(1) == 3 {
			cancel()
		}
	}
	partial, _ := RunSweep(bench.SizeSmall, opts)
	cancel()
	if err := state.Close(); err != nil {
		t.Fatal(err)
	}
	if len(partial.Skipped) == 0 {
		t.Fatal("canceled sweep skipped nothing; cancellation came too late to test resume")
	}
	if got := int(started.Load()); got != 3 {
		t.Fatalf("interrupted sweep executed %d runs, want 3", got)
	}
	if len(partial.Runs)+len(partial.Skipped) != len(clean.Runs) {
		t.Fatalf("partial sweep accounts for %d+%d runs, clean has %d",
			len(partial.Runs), len(partial.Skipped), len(clean.Runs))
	}

	// Resumed sweep: replays the journal, runs only the remainder.
	opts = resumeOpts()
	state, err = OpenState(dir, true, bench.SizeSmall, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer state.Close()
	if !state.Resumed() || state.ReplayedCount() != 3 {
		t.Fatalf("resumed=%v replayed=%d, want true/3", state.Resumed(), state.ReplayedCount())
	}
	var resumedRuns atomic.Int32
	opts.State = state
	opts.OnProgress = func(name, mode string) { resumedRuns.Add(1) }
	resumed, _ := RunSweep(bench.SizeSmall, opts)

	if got := int(resumedRuns.Load()); got != len(clean.Runs)-3 {
		t.Fatalf("resumed sweep executed %d runs, want %d", got, len(clean.Runs)-3)
	}
	if len(resumed.Skipped) != 0 {
		t.Fatalf("resumed sweep skipped %v", resumed.Skipped)
	}

	// Byte-identity: every figure and the whole JSON doc.
	for name, render := range map[string]func(*Results) string{
		"fig4": Fig4Text, "fig5": Fig5Text, "fig6": Fig6Text,
		"fig7": Fig7Text, "fig8": Fig8Text, "fig9": Fig9Text,
	} {
		if a, b := render(clean), render(resumed); a != b {
			t.Fatalf("%s differs between clean and resumed sweep:\n--- clean\n%s\n--- resumed\n%s", name, a, b)
		}
	}
	zeroWalls(clean)
	zeroWalls(resumed)
	aj, _ := json.Marshal(clean.JSON())
	bj, _ := json.Marshal(resumed.JSON())
	if string(aj) != string(bj) {
		t.Fatal("JSON export differs between clean and resumed sweep")
	}
}

// TestOpenStateFingerprintMismatch: resuming under a changed sweep
// configuration is rejected, not silently spliced.
func TestOpenStateFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	opts := resumeOpts()
	state, err := OpenState(dir, false, bench.SizeSmall, opts)
	if err != nil {
		t.Fatal(err)
	}
	state.Close()

	changed := resumeOpts()
	changed.Only = changed.Only[:2] // different benchmark list
	if _, err := OpenState(dir, true, bench.SizeSmall, changed); !errors.Is(err, journal.ErrFingerprint) {
		t.Fatalf("changed bench list: got %v, want ErrFingerprint", err)
	}

	sized := resumeOpts()
	if _, err := OpenState(dir, true, bench.SizeMedium, sized); !errors.Is(err, journal.ErrFingerprint) {
		t.Fatalf("changed size: got %v, want ErrFingerprint", err)
	}

	// The identical configuration resumes fine.
	state, err = OpenState(dir, true, bench.SizeSmall, resumeOpts())
	if err != nil {
		t.Fatalf("identical config rejected: %v", err)
	}
	state.Close()
}

// TestSweepFingerprintIgnoresJobs: results are identical for every worker
// count, so a journal written at one -jobs value must resume at another.
func TestSweepFingerprintIgnoresJobs(t *testing.T) {
	a := resumeOpts()
	a.Jobs = 1
	b := resumeOpts()
	b.Jobs = 8
	if SweepFingerprint(bench.SizeSmall, a) != SweepFingerprint(bench.SizeSmall, b) {
		t.Fatal("fingerprint must not depend on the worker count")
	}
	c := resumeOpts()
	c.Stall = 1 // any behavioral knob must change it
	if SweepFingerprint(bench.SizeSmall, a) == SweepFingerprint(bench.SizeSmall, c) {
		t.Fatal("fingerprint must cover the stall window")
	}
}

// TestFingerprintExcludesParallel: the intra-run worker count is the same
// kind of scheduling knob as Jobs — byte-identical results for every value
// — so a journal written serially must resume under -par and vice versa.
func TestFingerprintExcludesParallel(t *testing.T) {
	a := resumeOpts()
	a.Parallel = 0
	b := resumeOpts()
	b.Parallel = 8
	if SweepFingerprint(bench.SizeSmall, a) != SweepFingerprint(bench.SizeSmall, b) {
		t.Fatal("fingerprint must not depend on the intra-run worker count")
	}
}

// modeSetBench is a registry stub whose organization list can change
// between fingerprint computations, modeling a benchmark gaining or
// losing an extra mode across code versions. It is never swept (every
// sweep in this package restricts Only), so Run stays unreachable.
type modeSetBench struct {
	extra []bench.Mode
}

func (b *modeSetBench) Info() bench.Info {
	return bench.Info{Suite: "zz_test", Name: "modeset", Desc: "fingerprint mode-set stub", ExtraModes: b.extra}
}

func (b *modeSetBench) Run(s *device.System, mode bench.Mode, size bench.Size) {
	panic("modeSetBench must never run")
}

// TestFingerprintCoversModeSet: a benchmark's organization list is part
// of the sweep fingerprint, so a journal (or cache entry keyed by the
// fingerprint) recorded before the benchmark gained an extra mode can
// never alias the new sweep — resume is rejected with ErrFingerprint,
// which the CLI maps to exit 2.
func TestFingerprintCoversModeSet(t *testing.T) {
	stub := &modeSetBench{}
	bench.Register(stub)
	opts := SweepOpts{Only: []string{"zz_test/modeset"}, Jobs: 1}

	dir := t.TempDir()
	state, err := OpenState(dir, false, bench.SizeSmall, opts)
	if err != nil {
		t.Fatal(err)
	}
	state.Close()
	before := SweepFingerprint(bench.SizeSmall, opts)

	// The benchmark gains async-streams support; the fingerprint moves
	// and the old journal no longer resumes.
	stub.extra = []bench.Mode{bench.ModeAsyncStreams}
	if after := SweepFingerprint(bench.SizeSmall, opts); after == before {
		t.Fatal("fingerprint must cover the benchmark's organization list")
	}
	if _, err := OpenState(dir, true, bench.SizeSmall, opts); !errors.Is(err, journal.ErrFingerprint) {
		t.Fatalf("changed mode set: got %v, want ErrFingerprint", err)
	}

	// Restoring the original mode set resumes fine.
	stub.extra = nil
	state, err = OpenState(dir, true, bench.SizeSmall, opts)
	if err != nil {
		t.Fatalf("restored mode set rejected: %v", err)
	}
	state.Close()
}

// TestOpenStateJournalOnDisk pins the journal file location the docs
// promise (-state DIR writes DIR/sweep.journal).
func TestOpenStateJournalOnDisk(t *testing.T) {
	dir := t.TempDir()
	state, err := OpenState(filepath.Join(dir, "nested", "state"), false, bench.SizeSmall, resumeOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer state.Close()
	want := filepath.Join(dir, "nested", "state", "sweep.journal")
	if state.Path() != want {
		t.Fatalf("journal at %s, want %s", state.Path(), want)
	}
}

// TestRunSlotsDoneHook: RunSlots hands each executed run's live machine
// to done — from concurrent workers — and drops it once done returns; a
// resumed run list replays from DIR/hetsim.journal without calling done
// again.
func TestRunSlotsDoneHook(t *testing.T) {
	var benches []bench.Benchmark
	var slots []Slot
	for _, name := range []string{"rodinia/backprop", "rodinia/bfs"} {
		b, _ := bench.Get(name)
		benches = append(benches, b)
		slots = append(slots, Slot{b, bench.ModeCopy})
	}
	dir := t.TempDir()
	live := make([]bool, len(slots))
	var calls atomic.Int32
	done := func(i int, out *harness.Outcome) {
		calls.Add(1)
		live[i] = out.Sys != nil && out.Sys.Ctr.Get("gpu.ctas") > 0
	}
	for _, resume := range []bool{false, true} {
		opts := SweepOpts{Jobs: 2}
		state, err := OpenListState(dir, resume, bench.SizeSmall, bench.ModeCopy, benches, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.State = state
		outs, _ := RunSlots(bench.SizeSmall, slots, opts, done)
		state.Close()
		for i, out := range outs {
			if out == nil || out.Err != nil || out.Sys != nil {
				t.Fatalf("resume=%v slot %d: outcome %+v, want a completed run without its machine", resume, i, out)
			}
		}
		if state.Resumed() != resume || filepath.Base(state.Path()) != "hetsim.journal" {
			t.Fatalf("resume=%v: journal %s resumed=%v", resume, state.Path(), state.Resumed())
		}
	}
	if calls.Load() != 2 || !live[0] || !live[1] {
		t.Fatalf("done calls = %d, live = %v; want one live call per slot, none on replay", calls.Load(), live)
	}
}
