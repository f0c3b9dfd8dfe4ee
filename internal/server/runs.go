package server

import (
	"bytes"
	"encoding/json"
	"sort"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/trace"
)

// runMagic opens every run entry's body, ahead of the record's JSON. An
// entry under a run fingerprint without it — the /v1/run document an
// older daemon stored under the same key — is never read as a record:
// it is a miss, and the next store overwrites it.
const runMagic = "hetsimd-run 1\n"

// runRecord is out's stored form: its persistence record without the
// bytes that differ between identical runs — wall-clock costs, panic
// stacks, and the args of failure trace tails, where the harness stamps
// the request ID — so whichever request runs it stores the same entry,
// and the /v1/run document rendered from it carries no wall times. No
// rendered document shows stacks or trace args.
func runRecord(out *harness.Outcome) *harness.OutcomeRecord {
	scrub := func(e harness.RunError) harness.RunError {
		e.Wall, e.Stack = 0, nil
		tail := make([]trace.Event, len(e.TraceTail))
		for i, ev := range e.TraceTail {
			ev.Args = nil
			tail[i] = ev
		}
		e.TraceTail = tail
		return e
	}
	rec := out.Record()
	rec.Wall = 0
	if rec.Err != nil {
		e := scrub(*rec.Err)
		rec.Err = &e
	}
	errs := make([]harness.RunError, len(rec.AttemptErrors))
	for i, e := range rec.AttemptErrors {
		errs[i] = scrub(e)
	}
	rec.AttemptErrors = errs
	return rec
}

// loadRun reads the run entry under key.
func (s *Server) loadRun(key string) (*harness.OutcomeRecord, bool) {
	body, ok := s.cache.Get(key)
	if !ok {
		return nil, false
	}
	data, ok := bytes.CutPrefix(body, []byte(runMagic))
	if !ok {
		return nil, false
	}
	var rec harness.OutcomeRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		s.cfg.Logf("run entry %s: %v", short(key), err)
		return nil, false
	}
	return &rec, true
}

// storeRun writes rec as the run entry under key. Canceled outcomes are
// never stored: they are an artifact of the shutdown or deadline that
// cut the run short, not a result. Nothing is written while persistence
// is degraded, and a failed write degrades it.
func (s *Server) storeRun(key string, rec *harness.OutcomeRecord) error {
	if (rec.Err != nil && rec.Err.Kind == harness.KindCanceled) || !s.persist.ok() {
		return nil
	}
	data, err := json.Marshal(rec)
	if err == nil {
		err = s.cache.Put(key, append([]byte(runMagic), data...))
	}
	if err != nil {
		s.persist.degrade(err)
	}
	return err
}

// runView is one sweep request's view of the store, the RunStore its
// RunSweep checkpoints into. It files each slot under the slot's run
// fingerprint, so every request whose runs overlap shares them.
type runView struct {
	s    *Server
	keys map[string]string           // slot key -> run fingerprint
	done map[string]*harness.Outcome // slot key -> stored outcome
}

// openRuns builds the view for a sweep and reads the runs already stored
// up front: the resumed count must be known before a streamed response's
// headers go out with the first progress frame.
func (s *Server) openRuns(p *sweepParams) *runView {
	v := &runView{s: s, keys: experiments.RunKeys(p.size, p.opts), done: map[string]*harness.Outcome{}}
	slots := make([]string, 0, len(v.keys))
	for slot := range v.keys {
		slots = append(slots, slot)
	}
	sort.Strings(slots) // a fixed read order keeps the LRU clock deterministic
	for _, slot := range slots {
		if rec, ok := s.loadRun(v.keys[slot]); ok {
			v.done[slot] = rec.Outcome()
		}
	}
	return v
}

func (v *runView) Replayed(slot string) *harness.Outcome { return v.done[slot] }

func (v *runView) Append(slot string, out *harness.Outcome) error {
	return v.s.storeRun(v.keys[slot], runRecord(out))
}
