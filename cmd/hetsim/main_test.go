package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBinary compiles this command into dir and returns the binary path.
func buildBinary(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "hetsim")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// run executes the binary and returns stdout, stderr and the exit code.
func run(t *testing.T, bin string, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), code
}

// TestHetsimResume: a checkpointed two-benchmark run list, rerun with
// -resume, replays both runs from DIR/hetsim.journal and prints stdout
// byte-identical to the original; a journal written for a different list
// is rejected with exit 2.
func TestHetsimResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	dir := t.TempDir()
	bin := buildBinary(t, dir)
	stateDir := filepath.Join(dir, "state")
	args := []string{"-bench", "rodinia/backprop,rodinia/bfs", "-jobs", "1", "-state", stateDir}

	clean, stderr, code := run(t, bin, args...)
	if code != 0 || !strings.Contains(clean, "rodinia/bfs") {
		t.Fatalf("checkpointed run exit %d; stderr:\n%s", code, stderr)
	}

	resumed, stderr, code := run(t, bin, append(args, "-resume")...)
	if code != 0 {
		t.Fatalf("resumed run exit %d; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "resuming from") || !strings.Contains(stderr, "2 runs already journaled") {
		t.Fatalf("resume did not replay both runs; stderr:\n%s", stderr)
	}
	if resumed != clean {
		t.Fatalf("resumed stdout differs\n--- clean\n%s\n--- resumed\n%s", clean, resumed)
	}

	_, stderr, code = run(t, bin, "-bench", "rodinia/backprop", "-jobs", "1", "-state", stateDir, "-resume")
	if code != 2 || !strings.Contains(stderr, "fingerprint mismatch") {
		t.Fatalf("mismatched journal: exit %d, want 2 with a fingerprint diagnostic; stderr:\n%s", code, stderr)
	}
}

// TestHetsimUsageErrors: an unknown size or a fault plan that yields an
// invalid machine exits 2 before any run starts.
func TestHetsimUsageErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	bin := buildBinary(t, t.TempDir())
	for _, args := range [][]string{
		{"-size", "large"},
		{"-inject", "fault=NaN"},
		{"-inject", "pcie=NaN"},
		{"-inject", "dram=99:0:5"},
		{"-resume"},
	} {
		stdout, stderr, code := run(t, bin, append([]string{"-bench", "rodinia/kmeans"}, args...)...)
		if code != 2 || stdout != "" || strings.Contains(stderr, "run failed") {
			t.Errorf("%v: exit %d, want 2 before any run; stdout %q, stderr:\n%s", args, code, stdout, stderr)
		}
	}
}
