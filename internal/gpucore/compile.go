package gpucore

import (
	"sync"

	"repro/internal/isa"
	"repro/internal/memory"
)

// wop is one compiled warp instruction.
type wop struct {
	sum  uint64 // compute: the participating lanes' FLOPs summed
	n    uint32 // compute: the largest lane's FLOPs; memory: coalesced lines
	kind isa.OpKind
}

// prog is one CTA's compiled warp programs, laid out like isa.Arena: every
// warp's instructions back to back in one flat buffer, every memory op's
// coalesced lines (in issue order) in another, and per-warp ends cutting
// both. Programs are recycled through the GPU's progPool.
type prog struct {
	ops     []wop
	lines   []memory.Addr
	opEnd   []int // opEnd[w] ends warp w's instructions in ops
	lineEnd []int // lineEnd[w] ends warp w's lines in lines
}

// warp returns warp wi's instruction stream and coalesced lines.
func (p *prog) warp(wi int) ([]wop, []memory.Addr) {
	var o, l int
	if wi > 0 {
		o, l = p.opEnd[wi-1], p.lineEnd[wi-1]
	}
	return p.ops[o:p.opEnd[wi]], p.lines[l:p.lineEnd[wi]]
}

// progPool recycles CTA programs. A program is taken where its CTA is
// compiled — the timing thread, or under -par a generation or pre worker —
// and returned on the timing thread when the CTA retires, hence the lock.
type progPool struct {
	mu   sync.Mutex
	free []*prog
	made int // programs ever built
}

func (pp *progPool) get() *prog {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free = pp.free[:n-1]
		return p
	}
	pp.made++
	return new(prog)
}

func (pp *progPool) put(p *prog) {
	pp.mu.Lock()
	pp.free = append(pp.free, p)
	pp.mu.Unlock()
}

// compiler is one compiling goroutine's scratch. A CTA is compiled into
// it, growing its buffers to the largest CTA seen, and then copied into a
// pooled program at its exact size, so pooled programs follow the
// isa.Reserve rule with exact hints: they are never doubled past their
// CTA, and one outsized CTA leaves only the program it used outsized, and
// only until that program's next CTA.
type compiler struct {
	cur   []laneCursor
	ops   []wop
	lines []memory.Addr
}

// compile builds CTA ar's program on compiler c and hands the arena back
// through k.Release: nothing reads the lane traces afterwards. It runs
// wherever the CTA's traces are ready — in startCTA when serial, in the
// generation job or on a pre worker under -par — each with its own c.
func (g *GPU) compile(c *compiler, k *Kernel, ar *isa.Arena) *prog {
	if len(ar.Lanes) != k.ThreadsPerTA {
		panic("gpucore: Gen returned wrong lane count for kernel " + k.Name)
	}
	p := g.progs.get()
	c.compileCTA(p, ar.Lanes, g.warpsz, g.LineBytes)
	if k.Release != nil {
		k.Release(ar)
	}
	return p
}

// compileCTA compiles one CTA's lane traces into p, warp by warp, by the
// SIMT merge rule: the lowest-numbered unfinished lane leads, and every
// unfinished lane whose next op has the lead's kind participates and
// advances; divergent lanes wait for a later instruction (branch
// serialization). Which instructions a warp issues, with which lanes, is a
// pure function of the traces — timing decides only when — so the program
// can be built ahead of the timing thread.
func (c *compiler) compileCTA(p *prog, lanes []isa.Trace, warpsz, lineBytes int) {
	c.ops, c.lines = c.ops[:0], c.lines[:0]
	p.opEnd, p.lineEnd = p.opEnd[:0], p.lineEnd[:0]
	for lo := 0; lo < len(lanes); lo += warpsz {
		cur := c.cur[:0]
		for _, tr := range lanes[lo:min(lo+warpsz, len(lanes))] {
			cur = append(cur, laneCursor{tr: tr})
		}
		c.cur = cur
		// A finished lane stays finished, so the lead only moves up, and
		// lanes below it never participate again.
		for lead := 0; ; {
			for lead < len(cur) && cur[lead].done() {
				lead++
			}
			if lead == len(cur) {
				break
			}
			live := cur[lead:]
			op := wop{kind: live[0].tr[live[0].idx].Kind}
			switch op.kind {
			case isa.OpCompute:
				for i := range live {
					lc := &live[i]
					if !lc.done() && lc.tr[lc.idx].Kind == isa.OpCompute {
						n := lc.tr[lc.idx].N
						op.n = max(op.n, n)
						op.sum += uint64(n)
						lc.idx++
					}
				}
			case isa.OpSync, isa.OpScratch:
				advanceLanes(live, op.kind)
			default:
				base := len(c.lines)
				c.lines = coalesce(c.lines, live, op.kind, lineBytes)
				op.n = uint32(len(c.lines) - base)
			}
			c.ops = append(c.ops, op)
		}
		p.opEnd = append(p.opEnd, len(c.ops))
		p.lineEnd = append(p.lineEnd, len(c.lines))
	}
	// Exact sizes as hints; a hint of 0 would mean "keep any capacity".
	p.ops = append(isa.Reserve(p.ops, max(len(c.ops), 1)), c.ops...)
	p.lines = append(isa.Reserve(p.lines, max(len(c.lines), 1)), c.lines...)
}

type laneCursor struct {
	tr  isa.Trace
	idx int
}

func (lc *laneCursor) done() bool { return lc.idx >= len(lc.tr) }

// coalesce advances every lane whose next op matches kind and appends that
// op's unique line addresses to buf (deduplicated against buf's tail from
// base on, i.e. within this op only), returning the extended buffer. It is
// the single implementation of address coalescing: compileCTA's body for
// every memory instruction. lineBytes must be a power of two (New checks),
// so line addresses are masks rather than divisions.
func coalesce(buf []memory.Addr, lanes []laneCursor, kind isa.OpKind, lineBytes int) []memory.Addr {
	base := len(buf)
	step := memory.Addr(lineBytes)
	mask := ^(step - 1)
	for i := range lanes {
		lc := &lanes[i]
		if lc.done() || lc.tr[lc.idx].Kind != kind {
			continue
		}
		op := lc.tr[lc.idx]
		lc.idx++
		if op.N == 0 {
			continue
		}
		last := (op.Addr + memory.Addr(op.N) - 1) & mask
		for a := op.Addr & mask; a <= last; a += step {
			// Neighbouring lanes mostly hit the line just appended: check
			// it before the scan (which would find it last).
			if len(buf) > base && buf[len(buf)-1] == a {
				continue
			}
			dup := false
			for _, l := range buf[base:] {
				if l == a {
					dup = true
					break
				}
			}
			if !dup {
				buf = append(buf, a)
			}
		}
	}
	return buf
}

// advanceLanes advances every lane whose next op matches kind, for the
// instructions that carry nothing but their kind (syncs and scratch ops).
func advanceLanes(lanes []laneCursor, kind isa.OpKind) {
	for i := range lanes {
		lc := &lanes[i]
		if !lc.done() && lc.tr[lc.idx].Kind == kind {
			lc.idx++
		}
	}
}
