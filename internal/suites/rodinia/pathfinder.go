package rodinia

import (
	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/workload"
)

// Pathfinder is Rodinia's dynamic-programming grid walk: each row's kernel
// consumes the previous row's result — a long chain of small kernels whose
// launches the CPU serializes (outer-loop structure).
type Pathfinder struct{}

func init() { bench.Register(Pathfinder{}) }

// Info describes pathfinder.
func (Pathfinder) Info() bench.Info {
	return bench.Info{
		Suite: "rodinia", Name: "pathfinder",
		Desc:   "DP shortest path over a grid, one kernel per row block",
		PCComm: true, PipeParal: true, Regular: true,
	}
}

// Run executes pathfinder.
func (Pathfinder) Run(s *device.System, mode bench.Mode, size bench.Size) {
	cols := bench.ScaleN(65536, size)
	rows := 32
	block := 256

	wall := device.AllocBuf[int32](s, rows*cols, "wall", device.Host)
	result := device.AllocBuf[int32](s, cols, "result", device.Host)
	g := workload.Grid(rows, cols, 21)
	for i, v := range g {
		wall.V[i] = int32(v * 10)
	}

	s.BeginROI()
	dWall, _ := device.ToDevice(s, wall)
	// Double-buffered running minima, GPU-temporary.
	dA := device.AllocBuf[int32](s, cols, "path_a", device.Device)
	dB := device.AllocBuf[int32](s, cols, "path_b", device.Device)
	s.Drain()

	// Initialize from row 0.
	s.Launch(device.KernelSpec{
		Name: "pathfinder_init", Grid: cols / block, Block: block,
		Func: func(t *device.Thread) {
			i := t.Global()
			device.St(t, dA, i, device.Ld(t, dWall, i))
		},
	})
	src, dst := dA, dB
	for r := 1; r < rows; r++ {
		a, b, rr := src, dst, r
		s.Launch(device.KernelSpec{
			Name: "pathfinder_row", Grid: cols / block, Block: block,
			Func: func(t *device.Thread) {
				i := t.Global()
				best := device.Ld(t, a, i)
				if i > 0 {
					if l := device.Ld(t, a, i-1); l < best {
						best = l
					}
				}
				if i < cols-1 {
					if rgt := device.Ld(t, a, i+1); rgt < best {
						best = rgt
					}
				}
				t.FLOP(3)
				device.St(t, b, i, best+device.Ld(t, dWall, rr*cols+i))
			},
		})
		src, dst = dst, src
	}
	// Result lands where the CPU can read it: one residual copy in the
	// heterogeneous processor, the D2H copy in the discrete system.
	device.Memcpy(s, result, src)
	s.EndROI()
	s.AddResult(device.ChecksumI32(result.V))
}
