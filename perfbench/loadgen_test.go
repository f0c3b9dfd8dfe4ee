package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A stall on one request must show up as lateness and latency on the
// requests scheduled behind it: the generator times each request from its
// due time, not from when it finally got sent.
func TestOpenLoopCountsBacklog(t *testing.T) {
	const (
		n      = 40
		every  = 10 * time.Millisecond
		stall  = 200 * time.Millisecond
		stuck  = 3
		margin = 20 * time.Millisecond
	)
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1)-1 == stuck {
			time.Sleep(stall)
		}
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	c := newConnClient()
	defer c.CloseIdleConnections()

	offs := make([]time.Duration, n)
	for i := range offs {
		offs[i] = time.Duration(i) * every
	}
	ss := openLoop(context.Background(), time.Now(), offs, func(int) error {
		resp, err := c.Get(srv.URL)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, err = io.ReadAll(resp.Body)
		return err
	})
	if len(ss) != n {
		t.Fatalf("%d samples, want %d", len(ss), n)
	}
	for i, s := range ss {
		if s.err != nil {
			t.Fatalf("request %d: %v", i, s.err)
		}
	}
	if d := ss[stuck].latency(); d < stall {
		t.Errorf("stalled request latency %v, want >= %v", d, stall)
	}
	next := ss[stuck+1]
	if next.late() < stall-every-margin || next.latency() < stall-every-margin {
		t.Errorf("request behind the stall: late %v, latency %v; want both >= %v", next.late(), next.latency(), stall-every-margin)
	}
	if p99 := quantile(msOf(ss, sample.late), 0.99); p99 < float64((stall-every-margin)/time.Millisecond) {
		t.Errorf("late p99 %.1f ms does not count the backlog", p99)
	}
	if last := ss[n-1]; last.late() > 5*every {
		t.Errorf("backlog never drained: last request %v late", last.late())
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ss := openLoop(ctx, time.Now(), []time.Duration{0, time.Hour}, func(int) error { return nil })
	if len(ss) != 1 {
		t.Fatalf("%d samples after cancel, want 1", len(ss))
	}
}
