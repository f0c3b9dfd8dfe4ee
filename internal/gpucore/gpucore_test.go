package gpucore

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memory"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vm"
)

// testRig is a small GPU with a counting sink behind per-SM L1s.
type testRig struct {
	eng  *sim.Engine
	g    *GPU
	sink *sinkPort
	vmgr *vm.Manager
}

type sinkPort struct {
	lat   sim.Tick
	reads int
	wrs   int
}

func (p *sinkPort) Access(now sim.Tick, req memory.Request) sim.Tick {
	if req.Write {
		p.wrs++
	} else {
		p.reads++
	}
	return now + p.lat
}

func newRig(t *testing.T, sms int, memLat sim.Tick) *testRig {
	t.Helper()
	eng := sim.NewEngine()
	cfg := config.GPUConfig{
		SMs: sms, ClockHz: 700e6, WarpSize: 32,
		MaxWarpsPerSM: 48, MaxCTAsPerSM: 8, ScratchBytesPkSM: 48 * 1024,
		LanesPerCycle: 32, L1Bytes: 24 * 1024, L1Assoc: 6,
	}
	sink := &sinkPort{lat: memLat}
	var l1s []*memory.Cache
	for i := 0; i < sms; i++ {
		l1s = append(l1s, memory.NewCache(memory.CacheConfig{
			Name: "l1", SizeBytes: cfg.L1Bytes, Assoc: cfg.L1Assoc, LineBytes: 128,
			Policy: memory.WriteThroughNoAlloc, HitLat: 40 * sim.Nanosecond, Next: sink, SrcID: SrcID(),
		}))
	}
	mgr := vm.New(vm.Config{PageBytes: 4096}, nil)
	mgr.MapRange(0, 1<<30)
	return &testRig{eng: eng, g: New(eng, cfg, l1s, mgr, 128, stats.NewCounters()), sink: sink, vmgr: mgr}
}

// uniform builds a Gen producing identical traces for every lane.
func uniform(threads int, mk func(lane int) isa.Trace) func(int) *isa.Arena {
	return func(cta int) *isa.Arena {
		out := make([]isa.Trace, threads)
		for i := range out {
			out[i] = mk(i)
		}
		return &isa.Arena{Lanes: out}
	}
}

func runKernel(t *testing.T, r *testRig, k *Kernel) (end sim.Tick, flops uint64) {
	t.Helper()
	doneRan := false
	k.Done = func(e sim.Tick, f uint64) { end, flops, doneRan = e, f, true }
	r.g.Launch(0, k)
	r.eng.Run()
	if !doneRan {
		t.Fatal("kernel never completed")
	}
	return end, flops
}

func TestKernelCompletesAndCountsFLOPs(t *testing.T) {
	r := newRig(t, 2, 100*sim.Nanosecond)
	_, flops := runKernel(t, r, &Kernel{
		Name: "k", CTAs: 4, ThreadsPerTA: 64,
		Gen: uniform(64, func(lane int) isa.Trace {
			return isa.Trace{{Kind: isa.OpCompute, N: 10}}
		}),
	})
	if flops != 4*64*10 {
		t.Fatalf("flops = %d, want %d", flops, 4*64*10)
	}
	if r.g.Ctr.Get("gpu.ctas") != 4 {
		t.Fatalf("ctas = %d", r.g.Ctr.Get("gpu.ctas"))
	}
	if r.g.Ctr.Get("gpu.warps_retired") != 8 {
		t.Fatalf("warps = %d", r.g.Ctr.Get("gpu.warps_retired"))
	}
}

func TestCoalescingUnitStride(t *testing.T) {
	r := newRig(t, 1, 0)
	// 32 lanes x 4B unit stride = exactly one 128B line = 1 transaction.
	runKernel(t, r, &Kernel{
		Name: "c", CTAs: 1, ThreadsPerTA: 32,
		Gen: uniform(32, func(lane int) isa.Trace {
			return isa.Trace{{Kind: isa.OpLoad, Addr: memory.Addr(lane * 4), N: 4}}
		}),
	})
	if got := r.g.Ctr.Get("gpu.mem_transactions"); got != 1 {
		t.Fatalf("unit-stride transactions = %d, want 1", got)
	}
}

func TestCoalescingScattered(t *testing.T) {
	r := newRig(t, 1, 0)
	// Each lane hits its own line: 32 transactions.
	runKernel(t, r, &Kernel{
		Name: "s", CTAs: 1, ThreadsPerTA: 32,
		Gen: uniform(32, func(lane int) isa.Trace {
			return isa.Trace{{Kind: isa.OpLoad, Addr: memory.Addr(lane * 128), N: 4}}
		}),
	})
	if got := r.g.Ctr.Get("gpu.mem_transactions"); got != 32 {
		t.Fatalf("scattered transactions = %d, want 32", got)
	}
}

func TestMisalignmentDoublesTransactions(t *testing.T) {
	r := newRig(t, 1, 0)
	// A 128B-misaligned unit-stride warp access straddles two lines.
	runKernel(t, r, &Kernel{
		Name: "m", CTAs: 1, ThreadsPerTA: 32,
		Gen: uniform(32, func(lane int) isa.Trace {
			return isa.Trace{{Kind: isa.OpLoad, Addr: memory.Addr(64 + lane*4), N: 4}}
		}),
	})
	if got := r.g.Ctr.Get("gpu.mem_transactions"); got != 2 {
		t.Fatalf("misaligned transactions = %d, want 2", got)
	}
}

func TestWarpsHideMemoryLatency(t *testing.T) {
	// One warp: serial round trips. Many warps: latency overlapped.
	lat := 400 * sim.Nanosecond
	mkKernel := func(ctas int) *Kernel {
		return &Kernel{
			Name: "lat", CTAs: ctas, ThreadsPerTA: 32,
			Gen: uniform(32, func(lane int) isa.Trace {
				tr := make(isa.Trace, 8)
				for i := range tr {
					// Distinct lines per lane and per iteration: all misses.
					tr[i] = isa.Op{Kind: isa.OpLoad, Addr: memory.Addr(lane*128 + i*32*128), N: 4}
				}
				return tr
			}),
		}
	}
	r1 := newRig(t, 1, lat)
	end1, _ := runKernel(t, r1, mkKernel(1))
	r8 := newRig(t, 1, lat)
	end8, _ := runKernel(t, r8, mkKernel(8))
	// 8 CTAs issue 8x the loads; with latency hiding the time should grow
	// far less than 8x.
	if end8 > end1*3 {
		t.Fatalf("no latency hiding: 1 CTA %d ps, 8 CTAs %d ps", end1, end8)
	}
}

func TestBarrierSynchronizesWarps(t *testing.T) {
	r := newRig(t, 1, 0)
	// Warp 0 (lanes 0-31) computes a long stretch before the barrier; warp 1
	// a short one. After the barrier both do one load; the load cannot issue
	// before the slow warp arrives.
	slow := int64(10000) // cycles
	runKernel(t, r, &Kernel{
		Name: "bar", CTAs: 1, ThreadsPerTA: 64,
		Gen: func(cta int) *isa.Arena {
			out := make([]isa.Trace, 64)
			for i := range out {
				n := uint32(1)
				if i < 32 {
					n = uint32(slow)
				}
				out[i] = isa.Trace{
					{Kind: isa.OpCompute, N: n},
					{Kind: isa.OpSync},
					{Kind: isa.OpLoad, Addr: memory.Addr(i * 128), N: 4},
				}
			}
			return &isa.Arena{Lanes: out}
		},
	})
	// The kernel end must be at least the slow warp's compute time.
	if r.eng.Now() < r.g.Clk.Cycles(slow) {
		t.Fatalf("barrier did not hold: end %d < %d", r.eng.Now(), r.g.Clk.Cycles(slow))
	}
}

func TestCTACapacityLimitsSerializeWaves(t *testing.T) {
	// 1 SM, MaxCTAs 8: 16 heavy CTAs must run in two waves.
	r := newRig(t, 1, 0)
	cycles := int64(5000)
	end16, _ := runKernel(t, r, &Kernel{
		Name: "wave", CTAs: 16, ThreadsPerTA: 32,
		Gen: uniform(32, func(lane int) isa.Trace {
			return isa.Trace{{Kind: isa.OpCompute, N: uint32(cycles)}}
		}),
	})
	// Issue port serializes compute anyway; the check is on correct
	// completion of all CTAs.
	if r.g.Ctr.Get("gpu.ctas") != 16 {
		t.Fatalf("dispatched %d CTAs", r.g.Ctr.Get("gpu.ctas"))
	}
	if end16 < r.g.Clk.Cycles(16*cycles) {
		t.Fatalf("16 compute-bound CTAs on one SM too fast: %d", end16)
	}
}

func TestScratchLimitBlocksPlacement(t *testing.T) {
	r := newRig(t, 1, 0)
	// Each CTA wants 30kB of 48kB scratch: only one resident at a time.
	end, _ := runKernel(t, r, &Kernel{
		Name: "scr", CTAs: 2, ThreadsPerTA: 32, ScratchBytes: 30 * 1024,
		Gen: uniform(32, func(lane int) isa.Trace {
			return isa.Trace{{Kind: isa.OpCompute, N: 1000}}
		}),
	})
	if end < r.g.Clk.Cycles(2000) {
		t.Fatalf("scratch limit not enforced: %d", end)
	}
}

func TestDivergentLanesSerialize(t *testing.T) {
	r := newRig(t, 1, 0)
	// Half the lanes compute 100 cycles, half load. The merge rule executes
	// them as separate slots.
	runKernel(t, r, &Kernel{
		Name: "div", CTAs: 1, ThreadsPerTA: 32,
		Gen: func(cta int) *isa.Arena {
			out := make([]isa.Trace, 32)
			for i := range out {
				if i%2 == 0 {
					out[i] = isa.Trace{{Kind: isa.OpCompute, N: 100}}
				} else {
					out[i] = isa.Trace{{Kind: isa.OpLoad, Addr: memory.Addr(i * 128), N: 4}}
				}
			}
			return &isa.Arena{Lanes: out}
		},
	})
	// 16 odd lanes hit distinct lines: 16 transactions, plus compute ran.
	if got := r.g.Ctr.Get("gpu.mem_transactions"); got != 16 {
		t.Fatalf("divergent transactions = %d, want 16", got)
	}
	if got := r.g.Ctr.Get("gpu.flops"); got != 16*100 {
		t.Fatalf("divergent flops = %d", got)
	}
}

func TestStoresArePosted(t *testing.T) {
	r := newRig(t, 1, 500*sim.Nanosecond)
	end, _ := runKernel(t, r, &Kernel{
		Name: "st", CTAs: 1, ThreadsPerTA: 32,
		Gen: uniform(32, func(lane int) isa.Trace {
			return isa.Trace{{Kind: isa.OpStore, Addr: memory.Addr(lane * 4), N: 4}}
		}),
	})
	if end > 100*sim.Nanosecond {
		t.Fatalf("stores stalled the warp: %d ps", end)
	}
	if r.sink.wrs == 0 {
		t.Fatal("stores never reached memory")
	}
}

func TestGPUPageFaultsDelayWarps(t *testing.T) {
	eng := sim.NewEngine()
	cfgBase := config.GPUConfig{
		SMs: 1, ClockHz: 700e6, WarpSize: 32,
		MaxWarpsPerSM: 48, MaxCTAsPerSM: 8, ScratchBytesPkSM: 48 * 1024,
		LanesPerCycle: 32, L1Bytes: 24 * 1024, L1Assoc: 6,
	}
	sink := &sinkPort{}
	l1 := memory.NewCache(memory.CacheConfig{
		Name: "l1", SizeBytes: cfgBase.L1Bytes, Assoc: cfgBase.L1Assoc, LineBytes: 128,
		Policy: memory.WriteThroughNoAlloc, HitLat: 0, Next: sink, SrcID: SrcID(),
	})
	// Hetero-style: GPU faults serviced serially by the CPU at 2us each.
	mgr := vm.New(vm.Config{PageBytes: 4096, GPUFaultToCPU: true, CPUFaultServ: 2 * sim.Microsecond}, nil)
	g := New(eng, cfgBase, []*memory.Cache{l1}, mgr, 128, stats.NewCounters())

	var end sim.Tick
	g.Launch(0, &Kernel{
		Name: "fault", CTAs: 1, ThreadsPerTA: 32,
		Gen: uniform(32, func(lane int) isa.Trace {
			// Each lane writes its own unmapped page: 32 serialized faults.
			return isa.Trace{{Kind: isa.OpStore, Addr: memory.Addr(lane * 4096), N: 4}}
		}),
		Done: func(e sim.Tick, f uint64) { end = e },
	})
	eng.Run()
	if mgr.Counters().Get("vm.gpu_faults_to_cpu") != 32 {
		t.Fatalf("faults = %d", mgr.Counters().Get("vm.gpu_faults_to_cpu"))
	}
	// Posted stores don't stall, but the *issue* of each transaction waits
	// on translation, so the handler serialization shows up in busy time.
	if mgr.HandlerBusyTime() != 64*sim.Microsecond {
		t.Fatalf("handler busy = %d", mgr.HandlerBusyTime())
	}
	_ = end
}

func TestTwoKernelsFIFO(t *testing.T) {
	r := newRig(t, 1, 0)
	var order []string
	mk := func(name string) *Kernel {
		return &Kernel{
			Name: name, CTAs: 2, ThreadsPerTA: 32,
			Gen: uniform(32, func(lane int) isa.Trace {
				return isa.Trace{{Kind: isa.OpCompute, N: 100}}
			}),
			Done: func(e sim.Tick, f uint64) { order = append(order, name) },
		}
	}
	r.g.Launch(0, mk("a"))
	r.g.Launch(0, mk("b"))
	r.eng.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("kernel order = %v", order)
	}
}

func TestLaunchValidation(t *testing.T) {
	r := newRig(t, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty kernel")
		}
	}()
	r.g.Launch(0, &Kernel{Name: "bad", CTAs: 0, ThreadsPerTA: 32})
}
