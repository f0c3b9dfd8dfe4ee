package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fsx"
	"repro/internal/harness"
)

// Golden digests: a sha256 per (benchmark, mode, size) report that any
// workload can draw, and per served sweep document. They pin identity —
// the same bytes as the commit that generated them — not accuracy: the
// model has no hardware reference, so it is unvalidated and no error
// figure is claimed. Regenerate only when a change is meant to alter
// simulated results:
//
//	cd perfbench && go run . --write-golden golden.json
//
//go:embed golden.json
var goldenJSON []byte

var golden map[string]string

func loadGolden() error {
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	return nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// reportDigest hashes a report's JSON form, which carries no wall times.
func reportDigest(r *core.Report) string {
	b, err := json.Marshal(r.JSON())
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return digest(b)
}

func reportKey(name string, mode bench.Mode, size bench.Size) string {
	return name + "|" + mode.String() + "|" + size.String()
}

// docKey names a served sweep document by its benchmark list.
func docKey(benchmarks []string) string {
	return "sweep:" + strings.Join(benchmarks, "+") + "|small"
}

// goldenOK reports whether got matches the stored digest for key.
func goldenOK(key, got string) bool {
	want, ok := golden[key]
	return ok && want == got
}

// writeGolden runs every input any workload can draw and stores digests.
func writeGolden(path string) error {
	out := map[string]string{}
	nproc := runtime.NumCPU()
	for _, st := range mediumStrata {
		for _, name := range st.pool {
			b, ok := bench.Get(name)
			if !ok {
				return fmt.Errorf("unknown benchmark %s", name)
			}
			o := harness.Run(harness.Spec{Bench: b, Mode: st.mode, Size: bench.SizeMedium, Parallel: nproc})
			if o.Err != nil {
				return o.Err
			}
			out[reportKey(name, st.mode, bench.SizeMedium)] = reportDigest(o.Report)
		}
	}
	var pool []string
	for _, p := range sweepPairs {
		pool = append(pool, p[0], p[1])
	}
	res, errs := experiments.RunSweep(bench.SizeSmall, experiments.SweepOpts{Only: pool, Jobs: nproc})
	if len(errs) > 0 {
		return &errs[0]
	}
	for mode, reps := range sweepReports(res) {
		for name, r := range reps {
			out[reportKey(name, mode, bench.SizeSmall)] = reportDigest(r)
		}
	}
	dir, err := os.MkdirTemp(".", ".golden-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{nproc: nproc, dir: dir}
	ss, err := startServer(e, fsx.OS, "golden")
	if err != nil {
		return err
	}
	defer ss.close()
	sets := append([][]string(nil), warmSets...)
	for _, name := range coldPool {
		sets = append(sets, []string{name})
	}
	for _, set := range sets {
		body, _, err := ss.post(ss.client, sweepRequest(set, nproc))
		if err != nil {
			return err
		}
		out[docKey(set)] = digest(body)
	}
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range keys {
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "  %q: %q%s\n", k, out[k], sep)
	}
	b.WriteString("}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// sweepReports indexes a sweep's reports by mode.
func sweepReports(res *experiments.Results) map[bench.Mode]map[string]*core.Report {
	m := map[bench.Mode]map[string]*core.Report{bench.ModeCopy: res.Copy, bench.ModeLimitedCopy: res.Limited}
	for mode, reps := range res.Extra {
		m[mode] = reps
	}
	return m
}
