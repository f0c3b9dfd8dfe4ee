package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/bench"
	"repro/internal/fsx"
	"repro/internal/harness"
)

// JournalKind stamps experiment-sweep journals, so a state dir written by
// a different command is rejected on resume.
const JournalKind = "experiments"

// listJournalKind stamps the journals of cmd/hetsim's run lists.
const listJournalKind = "hetsim"

// Journal file names inside a state dir: the sweep's and the run list's.
const (
	journalFile     = "sweep.journal"
	listJournalFile = "hetsim.journal"
)

// Slot is one (benchmark, mode) run: the unit RunSlots schedules,
// journals and reports.
type Slot struct {
	Bench bench.Benchmark
	Mode  bench.Mode
}

func (s Slot) name() string { return s.Bench.Info().FullName() }

// key is the slot's stable journal key.
func (s Slot) key() string { return s.name() + "|" + s.Mode.String() }

// spec is the slot's run under opts: everything RunFingerprint hashes,
// without the scheduling and correlation knobs RunSlots adds.
func (s Slot) spec(size bench.Size, opts SweepOpts) harness.Spec {
	return harness.Spec{Bench: s.Bench, Mode: s.Mode, Size: size, Budget: opts.Budget, Fault: opts.Fault, Stall: opts.Stall}
}

// label names the run in progress lines and trace processes.
func (s Slot) label() string { return s.name() + " " + s.Mode.String() }

// sweepSlots builds the sweep's run slots: every registered benchmark
// (filtered by only when non-nil) in copy and limited-copy mode plus its
// extra modes, in the registry's stable order.
func sweepSlots(only map[string]bool) []Slot {
	var slots []Slot
	for _, b := range bench.All() {
		if only != nil && !only[b.Info().FullName()] {
			continue
		}
		slots = append(slots, Slot{b, bench.ModeCopy}, Slot{b, bench.ModeLimitedCopy})
		for _, m := range b.Info().ExtraModes {
			slots = append(slots, Slot{b, m})
		}
	}
	return slots
}

func onlySet(only []string) map[string]bool {
	if only == nil {
		return nil
	}
	set := map[string]bool{}
	for _, n := range only {
		set[n] = true
	}
	return set
}

// SweepFingerprint hashes everything that determines a sweep's results:
// the simulated system configurations, the input size, the ordered
// (benchmark, mode) slot list, the fault plan, the per-run budgets, and
// whether tracing is on. A journal is only resumable under the identical
// fingerprint — anything here changing means the recorded outcomes belong
// to a different experiment. The worker count is deliberately excluded:
// results are identical for every value of Jobs, so a sweep checkpointed
// with -jobs 8 may resume with -jobs 1.
func SweepFingerprint(size bench.Size, opts SweepOpts) string {
	parts := []string{"size", size.String()}
	// Each benchmark's full organization list, explicitly. The slot list
	// below already encodes it implicitly, but hashing the mode set by
	// name guarantees a journal or cache entry written before a benchmark
	// gained (or lost) an organization can never alias the new sweep, even
	// if slot enumeration is ever restructured.
	only := onlySet(opts.Only)
	for _, b := range bench.All() {
		info := b.Info()
		if only != nil && !only[info.FullName()] {
			continue
		}
		line := info.FullName()
		for _, m := range info.Modes() {
			line += " " + m.String()
		}
		parts = append(parts, "modes", line)
	}
	for _, s := range sweepSlots(only) {
		parts = append(parts, "slot", s.key())
	}
	return harness.Fingerprint("", parts, opts.Fault, opts.Budget, opts.Stall,
		"trace", strconv.FormatBool(opts.Trace))
}

// listFingerprint is SweepFingerprint for a cmd/hetsim run list: benches
// in the order given, all in one mode.
func listFingerprint(size bench.Size, mode bench.Mode, benches []bench.Benchmark, opts SweepOpts) string {
	parts := []string{"size", size.String(), "mode", mode.String()}
	for _, b := range benches {
		parts = append(parts, "bench", b.Info().FullName())
	}
	return harness.Fingerprint("", parts, opts.Fault, opts.Budget, opts.Stall,
		"trace", strconv.FormatBool(opts.Trace))
}

// RunFingerprint hashes everything that determines a single run's
// result — the key hetsimd stores the run under, whether a /v1/run or a
// sweep executed it. Like the sweep fingerprint it excludes timing-only
// knobs (intra-run workers, retry spacing).
func RunFingerprint(spec harness.Spec) string {
	return harness.Fingerprint("run", []string{
		"bench", spec.Bench.Info().FullName(), "mode", spec.Mode.String(), "size", spec.Size.String(),
	}, spec.Fault, spec.Budget, spec.Stall)
}

// RunKeys maps each of the sweep's slot keys to the RunFingerprint of the
// run that slot executes, so a run-keyed store can serve a sweep's
// RunStore calls and share runs across sweeps and single runs. Tracing is
// not in the run fingerprint: a traced sweep must not share a store with
// untraced ones.
func RunKeys(size bench.Size, opts SweepOpts) map[string]string {
	keys := map[string]string{}
	for _, s := range sweepSlots(onlySet(opts.Only)) {
		keys[s.key()] = RunFingerprint(s.spec(size, opts))
	}
	return keys
}

// OpenState opens (or creates) the sweep checkpoint journal in state dir
// for the given sweep configuration. With resume set, an existing journal
// is replayed — its outcomes come back through the returned log and
// RunSweep skips those runs — after validating that it was written by
// this command under the identical configuration. Without resume, any
// existing journal is discarded and a fresh one begins. The directory is
// created if missing.
func OpenState(dir string, resume bool, size bench.Size, opts SweepOpts) (*harness.RunLog, error) {
	return openIn(dir, journalFile, JournalKind, resume, SweepFingerprint(size, opts), sweepSlots(onlySet(opts.Only)))
}

// OpenListState is OpenState for a cmd/hetsim run list — benches in the
// order given, all in mode — journaled in DIR/hetsim.journal.
func OpenListState(dir string, resume bool, size bench.Size, mode bench.Mode, benches []bench.Benchmark, opts SweepOpts) (*harness.RunLog, error) {
	slots := make([]Slot, len(benches))
	for i, b := range benches {
		slots[i] = Slot{b, mode}
	}
	return openIn(dir, listJournalFile, listJournalKind, resume, listFingerprint(size, mode, benches, opts), slots)
}

// OpenStateAtFS is OpenState for callers that manage their own journal
// placement and identity, over an injectable filesystem: path names the
// journal file itself and kind stamps the producing command. The repo
// benchmark (perfbench) calls it to journal its sweeps through a timing
// filesystem. The parent directory must exist.
func OpenStateAtFS(fsys fsx.FS, path, kind string, resume bool, size bench.Size, opts SweepOpts) (*harness.RunLog, error) {
	return openLog(fsys, path, kind, resume, SweepFingerprint(size, opts), sweepSlots(onlySet(opts.Only)))
}

// openIn opens the journal named file inside dir on the real disk,
// creating dir if missing.
func openIn(dir, file, kind string, resume bool, fingerprint string, slots []Slot) (*harness.RunLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("state dir: %w", err)
	}
	return openLog(fsx.OS, filepath.Join(dir, file), kind, resume, fingerprint, slots)
}

// openLog replays the journal at path when resume is set and starts it
// fresh otherwise.
func openLog(fsys fsx.FS, path, kind string, resume bool, fingerprint string, slots []Slot) (*harness.RunLog, error) {
	names := make([]string, len(slots))
	for i, s := range slots {
		names[i] = s.key()
	}
	if resume {
		return harness.OpenRunLogOn(fsys, path, kind, fingerprint, names)
	}
	return harness.CreateRunLogOn(fsys, path, kind, fingerprint, names)
}
