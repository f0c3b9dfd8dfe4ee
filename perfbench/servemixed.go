package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/fsx"
	"repro/internal/server"
)

// warmSets are the multi-benchmark sweeps set-up computes; the hit
// connection replays them. They are cheap benchmarks none of the cold
// requests use.
var warmSets = [][]string{
	{"rodinia/lud", "parboil/cutcp"},
	{"parboil/lbm", "lonestar/dmr"},
	{"pannotia/fw", "pannotia/fw_block"},
	{"rodinia/heartwall", "rodinia/pf_float", "rodinia/pf_naive"},
}

// coldPool are the single-benchmark sweeps the cold connection sends, each
// once per run, in a seeded order at seeded times. Each takes about 0.2
// to 0.4 s to serve on 2 vCPUs. Sending all of them every run keeps the
// offered work the same for every seed; at about 15% of the phase they
// leave most hits undelayed, so the hits' median is a served hit, not a
// blocked one (twenty cold sweeps spread it by half between runs).
var coldPool = []string{
	"parboil/mri-q", "rodinia/cfd", "lonestar/bfs_wlc", "parboil/bfs", "lonestar/bfs_wlw",
	"parboil/sgemm", "lonestar/bfs_wla", "rodinia/dwt2d", "lonestar/sssp_wlf",
	"rodinia/gaussian", "rodinia/streamcluster",
}

const (
	// hitInterval is the fixed spacing of the hit schedule (40/s).
	hitInterval = 25 * time.Millisecond
	// coldSpan is the share of the load phase cold requests arrive in,
	// so the last cold sweep can finish inside the phase.
	coldSpan = 0.85
	// coldJitter is how far (as a share of the mean gap) a cold arrival
	// may move from its slot's centre.
	coldJitter = 0.25
)

var serveMixed = workload{
	name: "serve-mixed",
	setup: func(e *env) error {
		ss, err := startServer(e, fsx.OS, "setup")
		e.srv = ss
		return err
	},
	run: serveMixedPhase,
}

// serveState is one in-process daemon with its loopback listener.
type serveState struct {
	hs        *http.Server
	base      string
	client    *http.Client
	warmReqs  [][]byte
	warmDocs  [][]byte
	warmWall  time.Duration
	done      chan struct{}
	closeOnce sync.Once
}

// newConnClient is a client with exactly one keep-alive connection.
func newConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

func sweepRequest(benchmarks []string, jobs int) []byte {
	// Marshaling a struct of strings and ints cannot fail.
	b, _ := json.Marshal(server.SweepRequest{Benchmarks: benchmarks, Size: "small", Jobs: jobs})
	return b
}

// startServer builds the daemon as cmd/hetsimd does with its flag
// defaults (pool = GOMAXPROCS, queue 16) over a fresh state dir, serves
// it on a loopback listener, and computes the warm-up sweeps.
func startServer(e *env, fsys fsx.FS, name string) (*serveState, error) {
	srv, err := server.New(server.Config{
		StateDir: filepath.Join(e.dir, "state-"+name), Pool: 0, Queue: 16,
		RetryAfter: 2 * time.Second, GCInterval: time.Minute, CorruptAge: 24 * time.Hour,
		StreamWriteTimeout: time.Minute, FS: fsys,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ss := &serveState{
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: newConnClient(),
		done:   make(chan struct{}),
	}
	go func() {
		defer close(ss.done)
		// Serve returns ErrServerClosed once close shuts it down; any
		// other failure shows up as failed requests.
		_ = ss.hs.Serve(ln)
	}()
	t0 := time.Now()
	for _, set := range warmSets {
		req := sweepRequest(set, e.nproc)
		body, h, err := ss.post(ss.client, req)
		if err != nil {
			ss.close()
			return nil, fmt.Errorf("warm-up %v: %w", set, err)
		}
		if c := h.Get(server.HeaderCache); c != "miss" {
			ss.close()
			return nil, fmt.Errorf("warm-up %v: cache %q", set, c)
		}
		ss.warmReqs = append(ss.warmReqs, req)
		ss.warmDocs = append(ss.warmDocs, body)
	}
	ss.warmWall = time.Since(t0)
	return ss, nil
}

// checkWarm compares the warm-up documents with their golden digests.
func (ss *serveState) checkWarm(e *env) {
	for i, set := range warmSets {
		e.check(goldenOK(docKey(set), digest(ss.warmDocs[i])), "warm-up %v: digest mismatch", set)
	}
}

// post sends one sweep request and reads the whole response.
func (ss *serveState) post(c *http.Client, body []byte) ([]byte, http.Header, error) {
	resp, err := c.Post(ss.base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return data, resp.Header, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, resp.Header, nil
}

func (ss *serveState) close() {
	ss.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		ss.hs.Shutdown(ctx)
		<-ss.done
		ss.client.CloseIdleConnections()
	})
}

// scrape reads the daemon's /metrics exposition into series -> value.
func (ss *serveState) scrape() (map[string]float64, error) {
	resp, err := ss.client.Get(ss.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// histQuantile estimates quantile q of a Prometheus histogram from the
// difference of two scrapes, interpolating inside the bucket.
func histQuantile(before, after map[string]float64, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range after {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
			if err != nil {
				le = math.Inf(1)
			}
			bs = append(bs, bucket{le, v - before[k]})
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].n
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.n == prev {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prev)/(b.n-prev)
		}
		lo, prev = b.le, b.n
	}
	return lo
}

// coldSchedule draws the cold requests' order and arrival offsets: one
// arrival in each of len(coldPool) equal slots of the first coldSpan of
// the phase, jittered around the slot's centre. Arrivals stay at least
// half a mean gap apart, so a seed cannot pile many cold sweeps into one
// long busy period.
func coldSchedule(seed int64, phase time.Duration) ([]string, []time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	order := make([]string, len(coldPool))
	for i, j := range rng.Perm(len(coldPool)) {
		order[i] = coldPool[j]
	}
	gap := coldSpan * float64(phase) / float64(len(coldPool))
	offs := make([]time.Duration, len(coldPool))
	for i := range offs {
		jitter := (2*rng.Float64() - 1) * coldJitter
		offs[i] = time.Duration((float64(i) + 0.5 + jitter) * gap)
	}
	return order, offs
}

// serveMixedPhase runs the load phase: cold misses on one connection,
// hits on the other, for the measurement time. A traced run serves the
// whole phase from a second daemon whose persistence goes through the
// timing FS, with the CPU profile on.
func serveMixedPhase(e *env) error {
	if e.traced {
		zeroLayers(e)
	}
	ss := e.srv
	defer func() { ss.close() }()
	ss.checkWarm(e)
	tr := newTracer()
	var tfs *timedFS
	if e.traced {
		// The warm-up again on fresh daemons, alternately untraced and
		// traced: their median wall times give the tracing overhead. (The
		// set-up's own warm-up is the process's first and pays its heap
		// growth.) The last traced daemon serves the load phase.
		var plain, traced []float64
		for i := 0; i < 3; i++ {
			again, err := startServer(e, fsx.OS, fmt.Sprintf("untraced-%d", i))
			if err != nil {
				return err
			}
			again.close()
			plain = append(plain, again.warmWall.Seconds())
			tfs = newTimedFS(fsx.OS)
			var prof bytes.Buffer
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return err
			}
			next, err := startServer(e, tfs, fmt.Sprintf("traced-%d", i))
			pprof.StopCPUProfile()
			if err != nil {
				return err
			}
			next.checkWarm(e)
			traced = append(traced, next.warmWall.Seconds())
			ss.close()
			ss = next
		}
		e.setLayer("tracing.overhead_frac", "ratio", median(traced)/median(plain)-1)
		e.note("tracing.overhead_frac: warm-ups traced %v vs untraced %v", fmtSecs(traced), fmtSecs(plain))
	}

	order, coldOffs := coldSchedule(e.seed, e.seconds)
	var hitOffs []time.Duration
	for d := time.Duration(0); d < e.seconds; d += hitInterval {
		hitOffs = append(hitOffs, d)
	}
	coldClient, hitClient := newConnClient(), newConnClient()
	defer coldClient.CloseIdleConnections()
	defer hitClient.CloseIdleConnections()

	var mu sync.Mutex
	var counts simCounts
	var docBytes int
	var missWalls []float64
	cold := func(i int) error {
		set := []string{order[i]}
		var t *tracer
		if e.traced {
			t = tr
		}
		sp := t.begin("POST /v1/sweep miss "+order[i], -1)
		body, h, err := ss.post(coldClient, sweepRequest(set, e.nproc))
		t.end(sp)
		if err != nil {
			return err
		}
		if c := h.Get(server.HeaderCache); c != "miss" {
			return fmt.Errorf("cold %s: cache %q", order[i], c)
		}
		if !goldenOK(docKey(set), digest(body)) {
			return fmt.Errorf("cold %s: digest mismatch", order[i])
		}
		wallMs, _ := strconv.ParseFloat(h.Get(server.HeaderWallMs), 64)
		mu.Lock()
		defer mu.Unlock()
		missWalls = append(missWalls, wallMs/1e3)
		docBytes += len(body)
		if e.traced {
			var doc experiments.SweepDoc
			if err := json.Unmarshal(body, &doc); err != nil {
				return err
			}
			for _, r := range doc.Runs {
				counts.runs++
				counts.retries += uint64(r.Attempts - 1)
				counts.events += r.Events
				for _, p := range r.Phases {
					counts.addDeltas(p.Deltas)
				}
			}
			for _, row := range doc.Fig4.Rows {
				counts.footprint += row.TotalBytes
			}
		}
		return nil
	}
	hit := func(i int) error {
		k := i % len(ss.warmReqs)
		body, h, err := ss.post(hitClient, ss.warmReqs[k])
		if err != nil {
			return err
		}
		if c := h.Get(server.HeaderCache); c != "hit" {
			return fmt.Errorf("hit %d: cache %q", i, c)
		}
		if !bytes.Equal(body, ss.warmDocs[k]) {
			return fmt.Errorf("hit %d: body differs from the miss that created it", i)
		}
		return nil
	}

	var scrape0 map[string]float64
	var fs0 fsSnap
	if e.traced {
		var err error
		if scrape0, err = ss.scrape(); err != nil {
			return err
		}
		fs0 = tfs.st.snap()
		if err := tr.startWindow(); err != nil {
			return err
		}
	}
	ctx := context.Background()
	start := time.Now().Add(20 * time.Millisecond)
	var colds, hits []sample
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); colds = openLoop(ctx, start, coldOffs, cold) }()
	go func() { defer wg.Done(); hits = openLoop(ctx, start, hitOffs, hit) }()
	wg.Wait()
	end := time.Now()
	if e.traced {
		if err := tr.stopWindow(); err != nil {
			return err
		}
	}

	for _, s := range colds {
		e.check(s.err == nil, "%v", s.err)
	}
	for _, s := range hits {
		e.check(s.err == nil, "%v", s.err)
	}
	all := append(append([]sample(nil), colds...), hits...)
	hitLat, coldLat := msOf(hits, sample.latency), msOf(colds, sample.latency)
	// The phase runs to its last response: it outlasts the schedule only
	// when the daemon falls behind. The cold sweeps' own service time
	// (about 3.5 s of it on 2 vCPUs) spread by a quarter between runs, too
	// much to gate; it is reported beside it.
	coldWall := sum(msOf(colds, sample.rtt)) / 1e3
	e.setE2E("wall_s", "s", end.Sub(start).Seconds())
	setReqs(e, hitLat, fmt.Sprintf("cache hits sent every %v, due time to last byte", hitInterval))
	e.note("wall_s: %.3f s phase; %.3f s of it serving %d cold sweeps (send to last byte), their latency p50 %.3f s, max %.3f s",
		end.Sub(start).Seconds(), coldWall, len(colds), quantile(coldLat, 0.5)/1e3, quantile(coldLat, 1)/1e3)
	e.setLayer("server.hit_mean_ms", "ms", sum(hitLat)/float64(len(hitLat)))
	e.setLayer("server.hit_p50_ms", "ms", quantile(hitLat, 0.5))
	e.setLayer("server.hit_p99_ms", "ms", quantile(hitLat, 0.99))
	e.setLayer("server.miss_p50_s", "s", quantile(coldLat, 0.5)/1e3)
	e.setLayer("server.hit_rtt_p50_ms", "ms", quantile(msOf(hits, sample.rtt), 0.5))
	e.setLayer("server.hits", "count", float64(len(hits)))
	e.setLayer("server.misses", "count", float64(len(colds)))
	e.setLayer("loadgen.late_p99_ms", "ms", quantile(msOf(all, sample.late), 0.99))
	if !e.traced {
		return nil
	}
	scrape1, err := ss.scrape()
	if err != nil {
		return err
	}
	tr.setLayers(e, 1)
	counts.runSecs = sum(missWalls)
	counts.set(e, 1)
	setFSLayers(e, tfs.st.snap().minus(fs0), 1)
	e.setLayer("experiments.doc_mb", "MB", float64(docBytes)/1e6)
	e.setLayer("server.admit_wait_p99_ms", "ms", 1e3*histQuantile(scrape0, scrape1, "hetsimd_gate_queue_wait_seconds", 0.99))
	rejected := 0.0
	for k, v := range scrape1 {
		if strings.HasPrefix(k, "hetsimd_rejected_total") {
			rejected += v - scrape0[k]
		}
	}
	e.setLayer("server.rejected", "count", rejected)
	e.note("per-layer: the whole traced load phase; harness.run_s sums the misses' X-Hetsimd-Wall-Ms")
	return tr.write(e, "serve-mixed")
}
