package experiments

import (
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/harness"
)

// TestFingerprintGolden pins the sweep, run-list and single-run
// fingerprints to fixed hex values. Journals, hetsimd's response cache
// and its per-request journals are all keyed by these digests, so a
// refactor that reorders or relabels a hashed field would silently orphan
// every existing state dir. A deliberate change to either simulated
// machine (or to journal.Version) moves every value here — update them
// together, knowing old state no longer resumes.
func TestFingerprintGolden(t *testing.T) {
	fault, err := harness.ParseFaultPlan("pcie=0.25,fault=8,dram=0:100:600")
	if err != nil {
		t.Fatal(err)
	}
	budget := harness.Budget{MaxEvents: 1000000, Timeout: 30 * time.Second}
	get := func(name string) bench.Benchmark {
		b, ok := bench.Get(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		return b
	}
	km, spmv := get("rodinia/kmeans"), get("parboil/spmv")

	for _, tc := range []struct{ name, got, want string }{
		// Sweeps name their benchmarks: the full registry differs between
		// test binaries (tests register stub benchmarks).
		{"sweep default", SweepFingerprint(bench.SizeSmall, SweepOpts{Only: []string{"rodinia/backprop"}}),
			"6ba2501ab511a0b5f74746a96fc899a11ae70d4a1cdb49f056434ae4d8c7b7cf"},
		{"sweep full", SweepFingerprint(bench.SizeMedium, SweepOpts{
			Only: []string{"rodinia/kmeans", "rodinia/bfs"}, Fault: fault, Budget: budget,
			Stall: 5 * time.Second, Trace: true}),
			"a1d62f02bbc62ad09b94e80965b380c9b854f838e60144ff4661cb3e69a01a8a"},
		{"run default", RunFingerprint(harness.Spec{Bench: km, Mode: bench.ModeCopy, Size: bench.SizeSmall}),
			"e32e7e76b793e5bea7548cc7ac2c48fb9afda6748188e4104571cf1df089b18d"},
		{"run full", RunFingerprint(harness.Spec{Bench: km, Mode: bench.ModeLimitedCopy, Size: bench.SizeMedium,
			Fault: fault, Budget: budget, Stall: 5 * time.Second}),
			"bbf4030c1db52d74a6563d117e546d23dba2643aa9d0b5398fdd99c7ffd838a9"},
		{"list default", listFingerprint(bench.SizeSmall, bench.ModeCopy, []bench.Benchmark{km}, SweepOpts{}),
			"b7dc9f95366a3545d518e6f432105870fc0a7d2432041020b146c7e2a0a01d7a"},
		{"list full", listFingerprint(bench.SizeMedium, bench.ModeLimitedCopy, []bench.Benchmark{km, spmv}, SweepOpts{
			Fault: fault, Budget: budget, Stall: 5 * time.Second, Trace: true}),
			"f99a7e0772b228a233b4f5cb3a90429d8a27142262ea61e89a42fe1f8a935524"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s fingerprint = %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}
