package cli

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/fsx"
	"repro/internal/harness"
	"repro/internal/server"

	_ "repro/internal/suites/rodinia"
)

// parse declares the shared flags on a fresh flag set and parses args.
func parse(t *testing.T, args ...string) (*Flags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	return f, fs.Parse(args)
}

// TestInvalidFaultPlansRejected: a fault plan that parses term by term
// but degrades a simulated machine into an invalid one is a usage error
// on both front ends — the flag fails to parse (so both CLIs exit 2
// before any run) and hetsimd answers 400 on /v1/sweep and /v1/run.
func TestInvalidFaultPlansRejected(t *testing.T) {
	srv, err := server.New(server.Config{StateDir: t.TempDir(), Pool: 1, GCInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(path, body string) (int, string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}

	for _, plan := range []string{
		"fault=NaN", "pcie=NaN", "dram=99:0:5", "dram=0:0:NaN", "pcie=0.5,fault=Inf",
	} {
		t.Run(plan, func(t *testing.T) {
			if _, err := parse(t, "-inject", plan); err == nil || !strings.Contains(err.Error(), "-inject") {
				t.Errorf("-inject %s parsed (err %v)", plan, err)
			}
			// One tiny event budget: should validation ever regress, the
			// run fails at once instead of simulating.
			fields := `"max_events": 1, "fault": ` + strconv.Quote(plan)
			if code, body := post("/v1/sweep", `{"benchmarks": ["rodinia/backprop"], `+fields+`}`); code != http.StatusBadRequest {
				t.Errorf("/v1/sweep = %d, want 400: %s", code, body)
			}
			if code, body := post("/v1/run", `{"benchmark": "rodinia/backprop", `+fields+`}`); code != http.StatusBadRequest {
				t.Errorf("/v1/run = %d, want 400: %s", code, body)
			}
		})
	}

	if f, err := parse(t, "-inject", "pcie=0.25,fault=8,dram=0:100:600"); err != nil || !f.Fault.Active() {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

// TestSizeFlag: -size takes exactly the preset names; anything else is
// a usage error rather than a silent run at small.
func TestSizeFlag(t *testing.T) {
	for arg, want := range map[string]bench.Size{"small": bench.SizeSmall, "medium": bench.SizeMedium} {
		if f, err := parse(t, "-size", arg); err != nil || f.Size != want {
			t.Errorf("-size %s = %v, %v", arg, f.Size, err)
		}
	}
	if f, err := parse(t); err != nil || f.Size != bench.SizeSmall {
		t.Errorf("default size = %v, %v; want small", f.Size, err)
	}
	for _, arg := range []string{"large", "Medium", ""} {
		if _, err := parse(t, "-size", arg); err == nil || !strings.Contains(err.Error(), "unknown size") {
			t.Errorf("-size %q: err = %v, want unknown size", arg, err)
		}
	}
}

// TestOpenState pins the shared -state/-resume handling: no journal
// without -state, a usage error for -resume without it, and the resume
// setting passed through to the opener.
func TestOpenState(t *testing.T) {
	open := func(dir string, resume bool) (*harness.RunLog, error) {
		return harness.OpenRunLogOn(fsx.OS, filepath.Join(dir, "test.journal"), "test", "fp", nil)
	}
	for _, tc := range []struct {
		args    []string
		wantLog bool
		wantErr string
	}{
		{nil, false, ""},
		{[]string{"-resume"}, false, "-resume requires -state DIR"},
		{[]string{"-state", t.TempDir(), "-resume"}, true, ""},
	} {
		f, err := parse(t, tc.args...)
		if err != nil {
			t.Fatal(err)
		}
		state, err := f.OpenState(open)
		if (state != nil) != tc.wantLog || (err == nil) != (tc.wantErr == "") ||
			(err != nil && err.Error() != tc.wantErr) {
			t.Errorf("%v: log %v, err %v; want log %v, err %q", tc.args, state != nil, err, tc.wantLog, tc.wantErr)
		}
		state.Close()
	}
}
