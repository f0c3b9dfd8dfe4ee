package server

import (
	"bytes"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/fsx"
	"repro/internal/harness"
	"repro/internal/metrics"
)

// fastRun is the single run fastSweep shares: backprop in copy mode under
// the same budget.
const fastRun = `{"benchmark": "rodinia/backprop", "max_events": 40000}`

// mustPost posts body and requires a 200.
func mustPost(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp := postJSON(t, url, body)
	data := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s = %d; body: %s", url, resp.StatusCode, data)
	}
	return resp, data
}

// TestStoredResponsesSkipAdmission: a stored sweep document or run needs
// no simulation slot, so it is served while a blocked sweep holds the
// whole pool and the waiting line is empty; work that must execute is
// still turned away with 429.
func TestStoredResponsesSkipAdmission(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.Pool = 1; c.Queue = 0 })
	s.runSweep = func(size bench.Size, opts experiments.SweepOpts) (*experiments.Results, []harness.RunError) {
		return stubSweepResults(size), nil
	}
	s.runOne = func(spec harness.Spec) *harness.Outcome {
		return &harness.Outcome{Attempts: 1, Size: spec.Size, Events: 5}
	}
	const stored, storedRun = `{"benchmarks": ["rodinia/backprop"]}`, `{"benchmark": "rodinia/backprop"}`
	mustPost(t, ts.URL+"/v1/sweep", stored)
	mustPost(t, ts.URL+"/v1/run", storedRun)

	started, unblock := make(chan struct{}), make(chan struct{})
	s.runSweep = func(size bench.Size, opts experiments.SweepOpts) (*experiments.Results, []harness.RunError) {
		close(started)
		<-unblock
		return stubSweepResults(size), nil
	}
	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Error(err)
			first <- 0
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	<-started

	for _, c := range []struct{ path, body string }{{"/v1/sweep", stored}, {"/v1/run", storedRun}} {
		resp, body := mustPost(t, ts.URL+c.path, c.body)
		if got := resp.Header.Get(HeaderCache); got != "hit" {
			t.Errorf("stored %s with the pool full: %s = %q, want hit; body: %s", c.path, HeaderCache, got, body)
		}
	}
	for _, c := range []struct{ path, body string }{
		{"/v1/sweep", `{"benchmarks": ["rodinia/bfs"]}`},
		{"/v1/run", `{"benchmark": "rodinia/bfs"}`},
	} {
		resp := postJSON(t, ts.URL+c.path, c.body)
		if body := readBody(t, resp); resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("unstored %s with the pool full = %d, want 429; body: %s", c.path, resp.StatusCode, body)
		}
	}
	close(unblock)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("blocking sweep = %d, want 200", code)
	}
}

// TestCrossRequestRunReuse: runs are stored by run fingerprint, so a
// sweep overlapping an earlier one executes only what is new, its
// response is byte-identical to a fresh daemon's, and a /v1/run of a run
// some sweep executed is a hit.
func TestCrossRequestRunReuse(t *testing.T) {
	reg := metrics.NewRegistry()
	s, ts := newTestServer(t, func(c *Config) { c.Metrics = reg })
	mustPost(t, ts.URL+"/v1/sweep",
		`{"benchmarks": ["rodinia/backprop", "rodinia/pathfinder"], "size": "small", "max_events": 40000}`)

	executed := 0
	s.runSweep = func(size bench.Size, opts experiments.SweepOpts) (*experiments.Results, []harness.RunError) {
		opts.OnProgress = func(string, string) { executed++ }
		return experiments.RunSweep(size, opts)
	}
	resp, body := mustPost(t, ts.URL+"/v1/sweep", fastSweep)
	if executed != 0 {
		t.Fatalf("sweep of stored runs executed %d runs, want 0", executed)
	}
	if got := resp.Header.Get(HeaderCache); got != "miss" {
		t.Fatalf("%s = %q, want miss (the document was never stored)", HeaderCache, got)
	}
	if got := resp.Header.Get(HeaderResumed); got != strconv.Itoa(fastSweepRuns) {
		t.Fatalf("%s = %q, want %d", HeaderResumed, got, fastSweepRuns)
	}
	snap := reg.Snapshot()
	if got := snap["hetsimd_resumed_runs_total"]; got != fastSweepRuns {
		t.Fatalf("hetsimd_resumed_runs_total = %v, want %d", got, fastSweepRuns)
	}
	if got := snap["hetsimd_sweeps_resumed_total"]; got != 1 {
		t.Fatalf("hetsimd_sweeps_resumed_total = %v, want 1", got)
	}

	s.runOne = func(spec harness.Spec) *harness.Outcome {
		t.Error("a run a sweep stored was executed again")
		return &harness.Outcome{}
	}
	resp, run := mustPost(t, ts.URL+"/v1/run", fastRun)
	if got := resp.Header.Get(HeaderCache); got != "hit" {
		t.Fatalf("/v1/run of a swept run: %s = %q, want hit", HeaderCache, got)
	}

	_, fresh := newTestServer(t, nil)
	if _, want := mustPost(t, fresh.URL+"/v1/sweep", fastSweep); !bytes.Equal(body, want) {
		t.Fatal("sweep assembled from stored runs differs from a fresh daemon's")
	}
	if _, want := mustPost(t, fresh.URL+"/v1/run", fastRun); !bytes.Equal(run, want) {
		t.Fatalf("/v1/run rendered from a swept run differs from a fresh daemon's\ngot:  %s\nwant: %s", run, want)
	}
}

// TestOlderStateDir: a state dir an older daemon laid out — a cache/ of
// sweep documents and /v1/run documents under the same fingerprints, and
// a journals/ dir of per-request checkpoints — keeps working. The
// document hits byte-identically; the run document is not a run entry,
// so it is a miss and is overwritten; journals/ is ignored.
func TestOlderStateDir(t *testing.T) {
	_, ref := newTestServer(t, nil)
	_, doc := mustPost(t, ref.URL+"/v1/sweep", fastSweep)
	_, runDoc := mustPost(t, ref.URL+"/v1/run", fastRun)

	dir := t.TempDir()
	old, err := NewCacheFS(fsx.OS, filepath.Join(dir, "cache"), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	p := sweepParamsFor(t, fastSweep)
	runKey := experiments.RunKeys(p.size, p.opts)["rodinia/backprop|copy"]
	if err := old.Put(p.fingerprint, doc); err != nil {
		t.Fatal(err)
	}
	if err := old.Put(runKey, runDoc); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(dir, "journals", p.fingerprint+"-req1.journal")
	if err := os.MkdirAll(filepath.Dir(journal), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal, []byte("journal bytes\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, func(c *Config) { c.StateDir = dir })
	s.runSweep = func(size bench.Size, opts experiments.SweepOpts) (*experiments.Results, []harness.RunError) {
		t.Error("a stored document was rendered again")
		return stubSweepResults(size), nil
	}
	resp, body := mustPost(t, ts.URL+"/v1/sweep", fastSweep)
	if resp.Header.Get(HeaderCache) != "hit" || !bytes.Equal(body, doc) {
		t.Fatalf("older sweep document not served as a byte-identical hit (%s=%q)", HeaderCache, resp.Header.Get(HeaderCache))
	}

	calls := 0
	s.runOne = func(spec harness.Spec) *harness.Outcome {
		calls++
		return harness.Run(spec)
	}
	for i, want := range []string{"miss", "hit"} {
		resp, body := mustPost(t, ts.URL+"/v1/run", fastRun)
		if got := resp.Header.Get(HeaderCache); got != want {
			t.Fatalf("/v1/run %d over an older run document: %s = %q, want %s", i, HeaderCache, got, want)
		}
		if !bytes.Equal(body, runDoc) {
			t.Fatalf("/v1/run %d differs from the older daemon's document", i)
		}
	}
	if calls != 1 {
		t.Fatalf("runOne called %d times, want 1", calls)
	}
	if entry, _ := s.cache.Get(runKey); !bytes.HasPrefix(entry, []byte(runMagic)) {
		t.Fatal("the older run document was not overwritten with a run entry")
	}
	if data, err := os.ReadFile(journal); err != nil || string(data) != "journal bytes\n" {
		t.Fatalf("leftover journal touched: %q, %v", data, err)
	}
}

// stateTree reads every file under dir, keyed by relative path.
func stateTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	tree := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		tree[rel] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestStateTreeDeterministic: everything the daemon stores is a function
// of the requests alone — no wall times, no request IDs, no panic stacks
// — so two fresh daemons serving the same requests leave byte-identical
// state dirs.
func TestStateTreeDeterministic(t *testing.T) {
	serve := func(id string) map[string][]byte {
		s, ts := newTestServer(t, nil)
		hdr := map[string]string{HeaderRequestID: id}
		for _, c := range []struct{ path, body string }{
			{"/v1/sweep", fastSweep}, // miss
			{"/v1/sweep", fastSweep}, // hit
			{"/v1/run", `{"benchmark": "rodinia/bfs", "max_events": 100}`}, // a failed run
		} {
			resp := doJSON(t, ts.URL+c.path, c.body, hdr)
			if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
				t.Fatalf("POST %s = %d; body: %s", c.path, resp.StatusCode, body)
			}
		}
		return stateTree(t, s.cfg.StateDir)
	}
	a, b := serve("daemon-a"), serve("daemon-b")
	if len(a) != fastSweepRuns+2 {
		t.Fatalf("state tree has %d files, want %d runs, the document and the failed run", len(a), fastSweepRuns)
	}
	for name, data := range a {
		if !bytes.Equal(data, b[name]) {
			t.Errorf("%s differs between two daemons serving the same requests", name)
		}
	}
	if len(b) != len(a) {
		t.Errorf("state trees hold %d and %d files", len(a), len(b))
	}
}

// TestConcurrentSweepStoresEveryRun: with jobs = 2, pool workers store
// runs through one request's view at once; every run lands, and the
// document matches a serial sweep's.
func TestConcurrentSweepStoresEveryRun(t *testing.T) {
	serial := cleanBaseline(t)
	s, ts := newTestServer(t, func(c *Config) { c.Pool = 2 })
	parallel := strings.Replace(fastSweep, `"size"`, `"jobs": 2, "size"`, 1)
	if _, body := mustPost(t, ts.URL+"/v1/sweep", parallel); !bytes.Equal(body, serial) {
		t.Fatal("jobs=2 document differs from the serial one")
	}
	p := sweepParamsFor(t, fastSweep)
	for slot, key := range experiments.RunKeys(p.size, p.opts) {
		if _, ok := s.loadRun(key); !ok {
			t.Errorf("run %s not stored", slot)
		}
	}
}
