package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// sweepArgs is the restricted sweep the integration test runs: a handful
// of benchmarks, serial, figures only — big enough that SIGINT lands
// mid-sweep, small enough to keep the test quick.
var sweepArgs = []string{
	"-exp", "fig4,fig6",
	"-only", "rodinia/backprop,rodinia/kmeans,rodinia/srad,rodinia/bfs,rodinia/hotspot,rodinia/pathfinder",
	"-jobs", "1", "-q",
}

// buildBinary compiles this command into dir and returns the binary path.
func buildBinary(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "experiments")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestInterruptAndResume is the end-to-end crash-safety acceptance test:
// a checkpointed sweep killed with SIGINT mid-run must exit 130 with a
// valid journal, and a second invocation with -resume must produce stdout
// byte-identical to an uninterrupted sweep.
func TestInterruptAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	dir := t.TempDir()
	bin := buildBinary(t, dir)
	stateDir := filepath.Join(dir, "state")
	journalPath := filepath.Join(stateDir, "sweep.journal")

	// Reference: the uninterrupted sweep's stdout.
	clean, err := exec.Command(bin, sweepArgs...).Output()
	if err != nil {
		t.Fatalf("clean sweep: %v", err)
	}

	// Interrupted sweep: SIGINT once the journal shows three completed
	// runs (header + 3 records = 4 lines).
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, append(sweepArgs, "-state", stateDir)...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("journal never reached 3 records; stderr:\n%s", stderr.String())
		}
		data, err := os.ReadFile(journalPath)
		if err == nil && bytes.Count(data, []byte("\n")) >= 4 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 130 {
		t.Fatalf("interrupted sweep exit = %v, want exit status 130; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "resume with:") {
		t.Fatalf("interrupted sweep did not advertise resume; stderr:\n%s", stderr.String())
	}
	if bytes.Equal(stdout.Bytes(), clean) {
		t.Fatal("interrupted sweep printed the full report; SIGINT landed too late to test resume")
	}

	// Resumed sweep: must replay the journal and match the clean stdout
	// byte for byte.
	var rout, rerr bytes.Buffer
	cmd = exec.Command(bin, append(sweepArgs, "-state", stateDir, "-resume")...)
	cmd.Stdout, cmd.Stderr = &rout, &rerr
	if err := cmd.Run(); err != nil {
		t.Fatalf("resumed sweep: %v\nstderr:\n%s", err, rerr.String())
	}
	if !strings.Contains(rerr.String(), "resuming from") {
		t.Fatalf("resumed sweep did not replay the journal; stderr:\n%s", rerr.String())
	}
	if !bytes.Equal(rout.Bytes(), clean) {
		t.Fatalf("resumed stdout differs from the uninterrupted sweep\n--- clean\n%s\n--- resumed\n%s",
			clean, rout.Bytes())
	}
}

// TestResumeRejectsChangedConfig: -resume under a different sweep
// configuration must fail with the fingerprint error, not splice results.
func TestResumeRejectsChangedConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	dir := t.TempDir()
	bin := buildBinary(t, dir)
	stateDir := filepath.Join(dir, "state")

	args := []string{"-exp", "fig4", "-only", "rodinia/backprop", "-jobs", "1", "-q", "-state", stateDir}
	if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
		t.Fatalf("checkpointed sweep: %v\n%s", err, out)
	}

	changed := []string{"-exp", "fig4", "-only", "rodinia/bfs", "-jobs", "1", "-q", "-state", stateDir, "-resume"}
	out, err := exec.Command(bin, changed...).CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("changed config exit = %v, want 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "fingerprint mismatch") {
		t.Fatalf("missing fingerprint diagnostic:\n%s", out)
	}
}

// TestUsageErrorsExitBeforeSweep: an unknown size or a fault plan that
// yields an invalid machine exits 2 before any run starts.
func TestUsageErrorsExitBeforeSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess integration test")
	}
	bin := buildBinary(t, t.TempDir())
	for _, args := range [][]string{
		{"-size", "large"},
		{"-inject", "fault=NaN"},
		{"-inject", "dram=99:0:5"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, append([]string{"-exp", "fig4", "-only", "rodinia/kmeans", "-q"}, args...)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %v, want 2 before any run; stdout %q, stderr:\n%s", args, err, stdout.String(), stderr.String())
		}
	}
}
