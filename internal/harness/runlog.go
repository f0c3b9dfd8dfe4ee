package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/fsx"
	"repro/internal/journal"
)

// RunLog is the typed checkpoint layer over the journal WAL: a crash-safe
// record of per-run Outcomes keyed by slot name, shared by the sweep
// commands. Creating a log starts a fresh journal; opening one replays it
// and exposes the recorded outcomes so the sweep re-runs only what is
// missing. Append is safe for concurrent use by pool workers; every other
// method is called before or after the sweep. A nil *RunLog ignores every
// call, so un-journaled sweeps need no branching at the call sites.
//
// Canceled outcomes are deliberately not journaled: a KindCanceled run is
// an artifact of the shutdown that interrupted it, not a result, and
// recording it would make a resumed sweep replay the interruption instead
// of re-running the benchmark.
type RunLog struct {
	mu       sync.Mutex
	j        *journal.Journal
	replayed map[string]*Outcome
	resumed  bool
	err      error // first append failure, sticky
}

// CreateRunLogOn starts a fresh journal at path on fsys (truncating any
// existing file), stamped with the producing command's kind and the
// sweep's config fingerprint.
func CreateRunLogOn(fsys fsx.FS, path, kind, fingerprint string, slots []string) (*RunLog, error) {
	j, err := journal.CreateOn(fsys, path, kind, fingerprint, slots)
	if err != nil {
		return nil, err
	}
	return &RunLog{j: j}, nil
}

// OpenRunLogOn resumes from an existing journal at path on fsys,
// validating its kind and fingerprint and replaying its outcomes. A
// missing file is not an error: resuming a sweep that never checkpointed
// is just a fresh start, so the log is created instead. A journal for a
// different configuration (fingerprint mismatch) or a corrupt one fails
// loudly.
func OpenRunLogOn(fsys fsx.FS, path, kind, fingerprint string, slots []string) (*RunLog, error) {
	if _, err := fsys.Stat(path); err != nil && os.IsNotExist(err) {
		return CreateRunLogOn(fsys, path, kind, fingerprint, slots)
	}
	j, recs, err := journal.OpenOn(fsys, path, kind, fingerprint)
	if err != nil {
		return nil, err
	}
	l := &RunLog{j: j, replayed: make(map[string]*Outcome, len(recs)), resumed: true}
	for _, rec := range recs {
		var r OutcomeRecord
		if err := json.Unmarshal(rec.Payload, &r); err != nil {
			j.Close()
			return nil, fmt.Errorf("journal: record %d (%s): bad outcome payload: %w", rec.Seq, rec.Slot, err)
		}
		// Later records supersede earlier ones for the same slot (a slot
		// can repeat when an earlier resume re-ran it).
		l.replayed[rec.Slot] = r.Outcome()
	}
	if len(l.replayed) > 0 {
		mJournalResumes.Inc()
		mJournalReplayedRuns.Add(uint64(len(l.replayed)))
	}
	return l, nil
}

// Replayed returns the journaled outcome for slot, or nil if the slot has
// not completed (or the log is nil). The outcome's Sys is always nil —
// live machine state does not survive persistence.
func (l *RunLog) Replayed(slot string) *Outcome {
	if l == nil {
		return nil
	}
	return l.replayed[slot]
}

// Resumed reports whether the log replayed an existing journal (false for
// a fresh one, and for a nil log).
func (l *RunLog) Resumed() bool { return l != nil && l.resumed }

// ReplayedCount reports how many distinct slots the log replayed.
func (l *RunLog) ReplayedCount() int {
	if l == nil {
		return 0
	}
	return len(l.replayed)
}

// Append durably records one completed run. Canceled outcomes are
// skipped (see the type comment). The first failure is sticky: later
// appends become no-ops and Err reports it, so a full disk degrades the
// sweep to un-journaled rather than spamming one error per run.
func (l *RunLog) Append(slot string, out *Outcome) error {
	if l == nil {
		return nil
	}
	if out.Err != nil && out.Err.Kind == KindCanceled {
		return nil
	}
	payload, err := json.Marshal(out.Record())
	if err != nil {
		return l.fail(fmt.Errorf("journal: marshal outcome for %s: %w", slot, err))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if err := l.j.Append(slot, payload); err != nil {
		l.err = err
		return err
	}
	return nil
}

func (l *RunLog) fail(err error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = err
	}
	return err
}

// Err reports the first append failure, if any.
func (l *RunLog) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Path reports the journal file path ("" for a nil log).
func (l *RunLog) Path() string {
	if l == nil {
		return ""
	}
	return l.j.Path()
}

// Close syncs and closes the journal.
func (l *RunLog) Close() error {
	if l == nil {
		return nil
	}
	return l.j.Close()
}

// Fingerprint hashes everything that determines a set of runs' results,
// so a journal or cached result is only reused under the identical
// configuration. Every run fingerprint shares one layout: the journal
// format version; kind, when non-empty; both compiled-in simulated
// machines, so a code change to either invalidates old entries; the
// caller's label/value pairs in parts; the fault plan, the budgets and
// the stall window; then the label/value pairs in tail. Scheduling knobs
// (worker counts, retry spacing, request IDs) never belong here: results
// are identical for every value.
func Fingerprint(kind string, parts []string, fault *FaultPlan, budget Budget, stall time.Duration, tail ...string) string {
	var fp journal.Fingerprint
	add := func(pairs []string) {
		for i := 0; i+1 < len(pairs); i += 2 {
			fp.Add(pairs[i], pairs[i+1])
		}
	}
	fp.Add("version", strconv.Itoa(journal.Version))
	if kind != "" {
		fp.Add("kind", kind)
	}
	fp.Add("discrete", fmt.Sprintf("%+v", config.DiscreteGPU()))
	fp.Add("hetero", fmt.Sprintf("%+v", config.HeteroProcessor()))
	add(parts)
	fp.Add("fault", fault.String())
	fp.Add("max_events", strconv.FormatUint(budget.MaxEvents, 10))
	fp.Add("timeout", budget.Timeout.String())
	fp.Add("stall", stall.String())
	add(tail)
	return fp.Sum()
}
