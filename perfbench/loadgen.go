package main

import (
	"context"
	"time"
)

// spinWindow is how long before a request's due time the generator stops
// sleeping and starts spinning.
const spinWindow = 2 * time.Millisecond

// sample is one request of an open-loop schedule.
type sample struct {
	due, sent, done time.Time
	err             error
}

// latency runs from when the request was due, so time spent waiting
// behind an earlier, stalled request counts against this one too.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// late is how far behind its schedule the generator sent the request.
func (s sample) late() time.Duration { return s.sent.Sub(s.due) }

// rtt is send to last byte, without the generator's lateness.
func (s sample) rtt() time.Duration { return s.done.Sub(s.sent) }

// openLoop issues request i through do at start+offsets[i] (offsets
// ascending), one at a time as over a single keep-alive connection. A
// request that falls due while an earlier one is in flight is sent the
// moment that one completes — the schedule never waits for the system —
// and its latency still counts from its due time. It returns the samples
// of the requests it sent; ctx ends the schedule early.
func openLoop(ctx context.Context, start time.Time, offsets []time.Duration, do func(i int) error) []sample {
	out := make([]sample, 0, len(offsets))
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for i, off := range offsets {
		due := start.Add(off)
		// Sleep to just short of the due time, then spin until it: a
		// timer alone wakes up to a millisecond late on a busy host, and
		// that slop would count as the system's latency. (Yielding
		// instead of spinning costs more CPU, in the scheduler.)
		if d := time.Until(due) - spinWindow; d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return out
			}
		}
		for time.Now().Before(due) {
		}
		s := sample{due: due, sent: time.Now()}
		s.err = do(i)
		s.done = time.Now()
		out = append(out, s)
	}
	return out
}

// msOf converts a sample field into milliseconds for quantiles.
func msOf(ss []sample, f func(sample) time.Duration) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(f(s)) / 1e6
	}
	return out
}
