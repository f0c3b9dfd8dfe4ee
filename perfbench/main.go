// Command perfbench is the repository benchmark: it drives one workload
// through the simulator's public entry points, checks every output against
// golden digests, and prints the workload's metrics.
//
//	bash perfbench/run.sh --workload run-medium --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last stdout line carries the end-to-end metrics,
// measured with tracing off. With --trace 1 it carries the per-layer
// metrics, taken from traced operations (CPU profile folded per
// internal/<module>, a timing fsx.FS, spans around each layer call,
// runtime/metrics, and the daemon's /metrics). Human-readable lines with
// units and sample counts come first. README.md explains each number.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	_ "repro/internal/suites/lonestar"
	_ "repro/internal/suites/pannotia"
	_ "repro/internal/suites/parboil"
	_ "repro/internal/suites/rodinia"
)

// workDir holds every file a run writes (state dirs, span dumps); it is
// relative to the checkout root the benchmark runs from.
const workDir = ".perfbench"

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload gets: its inputs and the run's bookkeeping.
type env struct {
	seed    int64
	seconds time.Duration
	traced  bool
	dir     string // this run's private dir under workDir
	nproc   int

	attempted, failed int
	failures          []string

	e2e   map[string]metric
	layer map[string]metric
	notes []string // sample counts and other context for the human report

	srv *serveState // serve-mixed's daemon, started by its set-up
}

// check records one operation's verdict; msg explains a failure.
func (e *env) check(ok bool, format string, args ...any) {
	e.attempted++
	if !ok {
		e.failed++
		if len(e.failures) < 20 {
			e.failures = append(e.failures, fmt.Sprintf(format, args...))
		}
	}
}

func (e *env) setE2E(name, unit string, v float64)   { e.e2e[name] = metric{v, unit} }
func (e *env) setLayer(name, unit string, v float64) { e.layer[name] = metric{v, unit} }
func (e *env) note(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

// workload is one traffic mix (README.md says why each was chosen). setup
// is the set-up a fresh process does before its first timed operation
// (timed in child processes for setup_s); run does the timed phase and
// fills the metrics.
type workload struct {
	name  string
	setup func(e *env) error
	run   func(e *env) error
}

var workloads = []workload{runMedium, sweepSmall, serveMixed}

// run-medium and sweep-small alternate two complementary operations, A
// and B. An untraced run makes at least one of each and starts another
// while at least half of one still fits in the measurement time. A traced
// run makes exactly two pairs, the first untraced and the second traced.

// another reports whether a run starts operation i, given how long the
// previous one took.
func another(e *env, i int, start time.Time, last float64) bool {
	if e.traced {
		return i < 4
	}
	return i < 2 || time.Since(start).Seconds()+last/2 < e.seconds.Seconds()
}

// tracedOp reports whether operation i is traced.
func tracedOp(e *env, i int) bool { return e.traced && i >= 2 }

// pairWall is the mean of the A and B operations' median wall times:
// the cost of half the workload's total work, whatever the seed's split.
func pairWall(walls [2][]float64) float64 {
	return (median(walls[0]) + median(walls[1])) / 2
}

// pairLats flattens per-operation request latencies over complete A/B
// pairs only, so both halves of the pool weigh the same however many
// operations fit in the measurement time.
func pairLats(ops [2][][]float64) []float64 {
	k := min(len(ops[0]), len(ops[1]))
	var out []float64
	for _, side := range ops {
		for _, lats := range side[:k] {
			out = append(out, lats...)
		}
	}
	return out
}

// overhead compares the traced pair's wall time with the untraced pair's.
func overhead(untraced, traced [2][]float64) float64 {
	return (sum(traced[0])+sum(traced[1]))/(sum(untraced[0])+sum(untraced[1])) - 1
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name       = flag.String("workload", "", "workload: run-medium, sweep-small or serve-mixed")
		seed       = flag.Int64("seed", 1, "seed for the workload's inputs")
		seconds    = flag.Int("seconds", 30, "measurement time in seconds")
		traceFlag  = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced operations")
		probe      = flag.Bool("setup-probe", false, "internal: do the workload's set-up, print ready, exit")
		goldenPath = flag.String("write-golden", "", "regenerate the golden digests into this file and exit")
	)
	flag.Parse()
	if *goldenPath != "" {
		if err := writeGolden(*goldenPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traceFlag)
		flag.Usage()
		return 2
	}
	if err := loadGolden(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e := &env{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *traceFlag == 1,
		nproc: runtime.NumCPU(), e2e: map[string]metric{}, layer: map[string]metric{},
	}
	e.dir = filepath.Join(workDir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(e.dir)

	if *probe {
		if err := w.setup(e); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			return 1
		}
		fmt.Println("ready")
		return 0
	}

	setup, err := timeSetups(w, e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
		return 1
	}
	before := measureYardstick()
	if err := w.run(e); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rss := peakRSSMB()
	after := measureYardstick()
	e.setE2E("setup_s", "s", setup)
	e.setE2E("rss_peak_mb", "MB", rss)
	fail := 0.0
	if e.attempted > 0 {
		fail = float64(e.failed) / float64(e.attempted)
	}
	e.setLayer("fail_frac", "ratio", fail)
	e.setLayer("host.cpu_yardstick_ms", "ms", before.cpuMs)
	e.setLayer("host.mem_yardstick_ms", "ms", before.memMs)
	e.setLayer("host.cpu_drift_frac", "ratio", after.cpuMs/before.cpuMs-1)
	e.setLayer("host.mem_drift_frac", "ratio", after.memMs/before.memMs-1)
	e.note("operations: %d attempted, %d failed (fail_frac %.4f)", e.attempted, e.failed, fail)
	e.note("host yardstick: cpu %.2f -> %.2f ms, mem %.2f -> %.2f ms (before -> after; not folded into any metric)",
		before.cpuMs, after.cpuMs, before.memMs, after.memMs)
	for _, f := range e.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	return report(w, e)
}

// report prints the human-readable table, then the result line.
func report(w workload, e *env) int {
	fmt.Printf("# perfbench %s seed=%d seconds=%d trace=%v nproc=%d\n",
		w.name, e.seed, int(e.seconds/time.Second), e.traced, e.nproc)
	for _, n := range e.notes {
		fmt.Println("# " + n)
	}
	printTable("end-to-end", e.e2e)
	printTable("per-layer", e.layer)
	res := result{Correct: e.failed == 0 && e.attempted > 0, Attempted: e.attempted, Failed: e.failed}
	res.Metrics = e.e2e
	if e.traced {
		res.Metrics = e.layer
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func printTable(title string, m map[string]metric) {
	if len(m) == 0 {
		return
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s:\n", title)
	for _, n := range names {
		fmt.Printf("#   %-28s %14s %s\n", n, strconv.FormatFloat(m[n].Value, 'g', 6, 64), m[n].Unit)
	}
}

// Set-up is timed in at least minSetups fresh processes, and in more
// (up to maxSetups) while they take less than setupBudget in total;
// setup_s is their median, so one slow exec does not move it.
const (
	minSetups   = 3
	maxSetups   = 21
	setupBudget = 2 * time.Second
)

// timeSetups starts the benchmark binary setupRepeats times in set-up
// probe mode and returns the median time from process start to ready.
// The parent then does the set-up once more for its own timed phase.
func timeSetups(w workload, e *env) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < minSetups || (i < maxSetups && sum(ts) < setupBudget.Seconds()); i++ {
		cmd := exec.Command(self, "--setup-probe", "--workload", w.name, "--seed", strconv.FormatInt(e.seed, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(t0)
		werr := cmd.Wait()
		if rerr != nil || line != "ready\n" || werr != nil {
			return 0, fmt.Errorf("set-up probe %d: %q %v %v", i, line, rerr, werr)
		}
		ts = append(ts, d.Seconds())
	}
	e.note("setup_s: median of %d fresh-process set-ups %v", len(ts), fmtSecs(ts))
	if err := w.setup(e); err != nil {
		return 0, err
	}
	return median(ts), nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
