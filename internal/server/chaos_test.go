package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fsx"
)

// The chaos suite: script filesystem failures underneath a live daemon
// and hold it to the degraded-mode contract — the response is 200 and
// byte-identical to an unfaulted run, the X-Hetsimd-Persist header flips
// to "degraded", /readyz stays ready, and once the fault clears the
// recovery probe re-enables persistence. A persistence failure must never
// surface as a request failure.

// cleanBaseline runs the fast sweep on an unfaulted server and returns
// its body — the byte-identical reference for every chaos scenario.
func cleanBaseline(t *testing.T) []byte {
	t.Helper()
	_, ts := newTestServer(t, nil)
	resp := postJSON(t, ts.URL+"/v1/sweep", fastSweep)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline sweep status = %d; body: %s", resp.StatusCode, body)
	}
	return body
}

// faultedServer builds a server whose whole persistence path runs through
// an fsx fault injector, with a fast recovery probe.
func faultedServer(t *testing.T) (*fsx.Fault, *Server, string) {
	t.Helper()
	ff := fsx.NewFault(nil)
	s, ts := newTestServer(t, func(c *Config) {
		c.FS = ff
		c.ProbeInterval = 10 * time.Millisecond
		c.GCInterval = -1
	})
	return ff, s, ts.URL
}

// waitPersist polls until the guard reports the wanted status.
func waitPersist(t *testing.T, s *Server, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s.persist.status() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("persist status never became %q (stuck at %q)", want, s.persist.status())
}

// mustSweep posts the fast sweep and asserts a 200 with the expected
// persistence header and the expected exact body.
func mustSweep(t *testing.T, url, wantPersist string, wantBody []byte) *http.Response {
	t.Helper()
	resp := postJSON(t, url+"/v1/sweep", fastSweep)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d, want 200 (persistence failures must never fail requests); body: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(HeaderPersist); got != wantPersist {
		t.Fatalf("%s = %q, want %q", HeaderPersist, got, wantPersist)
	}
	if !bytes.Equal(body, wantBody) {
		t.Fatalf("response body differs from the unfaulted baseline\nfaulted: %s\nbaseline: %s", body, wantBody)
	}
	return resp
}

// TestChaosTornAppendENOSPC: the disk fills mid-sweep, tearing a run
// entry's write. The sweep finishes from memory, the response is
// identical to a healthy run, and after the disk clears the resubmission
// takes the run stored before the tear and persistence heals.
func TestChaosTornAppendENOSPC(t *testing.T) {
	clean := cleanBaseline(t)
	ff, s, url := faultedServer(t)

	// Writes #1 and #2 are the first run entry's header and body; write
	// #3, the second entry's header, tears (half of it lands) and every
	// write after fails, probe writes included, until the fault clears.
	ff.Inject(fsx.Rule{Op: fsx.OpWrite, Nth: 3, Err: fsx.ErrNoSpace, Trip: true, ShortWrite: true})
	mustSweep(t, url, "degraded", clean)
	if op, _, degraded := s.persist.detail(); !degraded || op != opCachePut {
		t.Fatalf("guard = (op=%q, degraded=%v), want degraded on %s", op, degraded, opCachePut)
	}
	// Only the run stored before the tear is on disk; no torn entry and
	// no document.
	entries, _ := filepath.Glob(filepath.Join(s.cache.dir, "*.entry"))
	if len(entries) != 1 {
		t.Fatalf("entries after torn sweep = %v, want the one run stored before the tear", entries)
	}

	// The disk clears; the probe re-enables persistence, and the next
	// request takes the stored run, executes the rest, and stores the
	// document — same bytes throughout.
	ff.Clear()
	waitPersist(t, s, "ok")
	resp := mustSweep(t, url, "ok", clean)
	if got := resp.Header.Get(HeaderResumed); got != "1" {
		t.Fatalf("post-recovery %s = %q, want 1 (the run stored before the tear)", HeaderResumed, got)
	}
	resp = mustSweep(t, url, "ok", clean)
	if got := resp.Header.Get(HeaderCache); got != "hit" {
		t.Fatalf("post-recovery repeat %s = %q, want hit", HeaderCache, got)
	}
}

// TestChaosFsyncEIO: every fsync fails (a dying device), so not even the
// first run entry can be stored. The sweep runs entirely from memory, the
// response is identical, /readyz stays ready with a degraded detail, and
// recovery restores full persistence.
func TestChaosFsyncEIO(t *testing.T) {
	clean := cleanBaseline(t)
	ff, s, url := faultedServer(t)

	ff.FailOp(fsx.OpSync, fsx.ErrIO)
	mustSweep(t, url, "degraded", clean)
	if op, _, degraded := s.persist.detail(); !degraded || op != opCachePut {
		t.Fatalf("guard = (op=%q, degraded=%v), want degraded on %s", op, degraded, opCachePut)
	}
	if entries, _ := filepath.Glob(filepath.Join(s.cache.dir, "*.entry")); len(entries) != 0 {
		t.Fatalf("entries stored through a failing fsync: %v", entries)
	}

	// Degraded is a warning, not an outage: /readyz stays 200.
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ready["status"] != "ready" || ready["persist"] != "degraded" {
		t.Fatalf("readyz while degraded = %d %v, want 200 ready/degraded", resp.StatusCode, ready)
	}

	ff.Clear()
	waitPersist(t, s, "ok")
	mustSweep(t, url, "ok", clean)
	resp2 := mustSweep(t, url, "ok", clean)
	if got := resp2.Header.Get(HeaderCache); got != "hit" {
		t.Fatalf("post-recovery repeat %s = %q, want hit", HeaderCache, got)
	}
}

// TestChaosRenameFail: the sweep executes fine but the first run entry's
// atomic rename fails. The response is still served identical; only
// storing is lost.
func TestChaosRenameFail(t *testing.T) {
	clean := cleanBaseline(t)
	ff, s, url := faultedServer(t)

	ff.FailOp(fsx.OpRename, fsx.ErrIO)
	mustSweep(t, url, "degraded", clean)
	if op, _, degraded := s.persist.detail(); !degraded || op != opCachePut {
		t.Fatalf("guard = (op=%q, degraded=%v), want degraded on %s", op, degraded, opCachePut)
	}

	ff.Clear()
	waitPersist(t, s, "ok")
	mustSweep(t, url, "ok", clean)
	resp := mustSweep(t, url, "ok", clean)
	if got := resp.Header.Get(HeaderCache); got != "hit" {
		t.Fatalf("post-recovery repeat %s = %q, want hit", HeaderCache, got)
	}
}
