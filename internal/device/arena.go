package device

import (
	"sync"

	"repro/internal/isa"
)

// arenaPool recycles trace arenas across a run's kernels and CPU tasks.
// An arena is taken when a CTA (or CPU task thread) generates its traces
// and returned when it retires, so the pool holds at most as many arenas
// as were ever live at once: the resident CTAs plus, under -par, the
// CTAs a pipelined kernel has generated ahead of dispatch. With -par the
// generation worker takes arenas while the timing thread returns them,
// hence the lock — one per CTA, noise next to its lane programs.
type arenaPool struct {
	mu   sync.Mutex
	free []*isa.Arena
	made int // arenas ever built
}

func (p *arenaPool) get() *isa.Arena {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		a := p.free[n-1]
		p.free = p.free[:n-1]
		return a
	}
	p.made++
	return new(isa.Arena)
}

func (p *arenaPool) put(a *isa.Arena) {
	p.mu.Lock()
	p.free = append(p.free, a)
	p.mu.Unlock()
}

// genCTA runs fn once per lane of CTA cta, block lanes wide, recording
// every lane's trace into one recycled arena. One Thread per CTA,
// re-pointed per lane: kernels only use the Thread inside fn, so the
// struct need not outlive the call. size carries the op count of the
// kernel's previous CTA, the arena's sizing hint (see isa.Arena.Open).
func (s *System) genCTA(t *Thread, cta, block int, fn func(*Thread), size *int) *isa.Arena {
	ar := s.arenas.get()
	t.cta, t.block = cta, block
	t.tr = ar.Open(*size)
	for i := 0; i < block; i++ {
		t.lane = i
		t.global = cta*block + i
		fn(t)
		t.tr = ar.EndLane(t.tr)
	}
	*size = len(t.tr)
	t.tr = nil
	ar.Seal()
	return ar
}
