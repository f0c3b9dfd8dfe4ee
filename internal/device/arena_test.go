package device

import (
	"reflect"
	"testing"

	"repro/internal/config"
)

// arenaRun drives every arena user — normal kernels with lanes of unequal
// length, a multi-threaded CPU task, and a persistent kernel fed in two
// batches — and returns the system for inspection.
func arenaRun(t *testing.T, cfg config.System, par int) *System {
	t.Helper()
	s := NewSystem(cfg, WithParallel(par))
	t.Cleanup(s.Release)
	const n = 1 << 15
	in := AllocBuf[float32](s, n, "in", Host)
	out := AllocBuf[float32](s, n, "out", Host)
	for i := range in.V {
		in.V[i] = float32(i % 97)
	}
	s.BeginROI()
	din, _ := ToDevice(s, in)
	dout, _ := ToDevice(s, out)
	for k := 0; k < 3; k++ {
		s.Launch(KernelSpec{
			Name: "k", Grid: n / 64, Block: 64,
			Func: func(t *Thread) {
				i := t.Global()
				v := Ld(t, din, (i*(k+1))%n)
				t.FLOP(1 + i%3)
				if i%5 != k {
					St(t, dout, i, v+float32(k))
				}
			},
		})
	}
	s.CPUTask(CPUTaskSpec{Name: "sum", Threads: 4, Func: func(c *CPUThread) {
		for j := c.TID(); j < n; j += 4 * c.Threads() {
			Ld(c, dout, j)
			c.FLOP(1)
		}
	}})
	pk := s.LaunchPersistent(PersistentKernelSpec{
		Name: "p", Block: 64,
		Func: func(t *Thread) {
			i := t.Global() % n
			St(t, dout, i, Ld(t, dout, i)*2)
		},
	})
	s.Wait(pk.Feed(64))
	pk.Feed(32)
	s.Wait(pk.Close())
	s.Wait(FromDevice(s, out, dout))
	s.EndROI()
	s.AddResult(ChecksumF32(out.V))
	return s
}

// TestArenaReuseBounded: a run generating thousands of CTAs builds only as
// many arenas as it ever holds at once — the resident CTAs (or CPU task
// threads) plus, under -par, the window a pipelined kernel may generate
// ahead of dispatch.
func TestArenaReuseBounded(t *testing.T) {
	cfg := config.DiscreteGPU()
	resident := cfg.GPU.SMs * cfg.GPU.MaxCTAsPerSM
	const gets = 3*(1<<15)/64 + 4 + 96 // kernel CTAs, CPU threads, persistent CTAs
	for _, par := range []int{1, 2, 3} {
		s := arenaRun(t, cfg, par)
		bound := resident
		if s.par != nil {
			bound += s.par.Window()
		}
		made := s.arenas.made
		t.Logf("par=%d: %d arenas for %d gets (bound %d)", par, made, gets, bound)
		if made > bound {
			t.Errorf("par=%d: built %d arenas, want <= %d", par, made, bound)
		}
		if made*4 > gets {
			t.Errorf("par=%d: built %d arenas for %d CTAs and threads: not reused", par, made, gets)
		}
		if len(s.arenas.free) != made {
			t.Errorf("par=%d: %d of %d arenas returned at run end", par, len(s.arenas.free), made)
		}
	}
}

// TestArenaParIdentical: recycled arenas — taken on the generation worker,
// returned on the timing thread — leave counters, footprint and results
// byte-identical at par 1, 2 and 3, persistent kernels included. CI runs
// the device tests under -race.
func TestArenaParIdentical(t *testing.T) {
	for _, cfg := range []config.System{config.DiscreteGPU(), config.HeteroProcessor()} {
		var ref *System
		var refRep string
		for _, par := range []int{1, 2, 3} {
			s := arenaRun(t, cfg, par)
			rep := s.Report("arena", "copy").String()
			if ref == nil {
				ref, refRep = s, rep
				continue
			}
			if !reflect.DeepEqual(s.Ctr.Snapshot(), ref.Ctr.Snapshot()) {
				t.Errorf("%s par=%d: counters diverge from serial", cfg.Kind, par)
			}
			if !reflect.DeepEqual(s.Result, ref.Result) {
				t.Errorf("%s par=%d: result %v, serial %v", cfg.Kind, par, s.Result, ref.Result)
			}
			if rep != refRep {
				t.Errorf("%s par=%d: report diverges from serial:\n%s\nvs\n%s", cfg.Kind, par, rep, refRep)
			}
		}
	}
}

// TestGenCTAZeroAlloc: once the pool is warm, generating a CTA's traces
// and returning its arena allocates nothing.
func TestGenCTAZeroAlloc(t *testing.T) {
	s := NewSystem(config.HeteroProcessor())
	buf := AllocBuf[float32](s, 1<<14, "b", Host)
	fn := func(t *Thread) { St(t, buf, t.Global(), Ld(t, buf, t.Global())+1) }
	th := &Thread{s: s}
	cta, size := 0, 0
	if a := testing.AllocsPerRun(100, func() {
		s.arenas.put(s.genCTA(th, cta, 256, fn, &size))
		cta = (cta + 1) % 64
	}); a != 0 {
		t.Fatalf("genCTA allocates %.1f/op, want 0", a)
	}
}

// BenchmarkGenCTA measures per-CTA trace generation: one 256-lane CTA of
// a load/compute/store kernel recorded into a recycled arena, footprint
// touches included.
func BenchmarkGenCTA(b *testing.B) {
	s := NewSystem(config.HeteroProcessor())
	const block, grid = 256, 64
	in := AllocBuf[float32](s, block*grid, "in", Host)
	out := AllocBuf[float32](s, block*grid, "out", Host)
	fn := func(t *Thread) {
		i := t.Global()
		v := Ld(t, in, i)
		t.FLOP(2)
		St(t, out, i, v+1)
	}
	t := &Thread{s: s}
	size := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.arenas.put(s.genCTA(t, i%grid, block, fn, &size))
	}
}
