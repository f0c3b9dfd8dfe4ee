package gpucore

import (
	"encoding/binary"
	"testing"

	"repro/internal/isa"
	"repro/internal/memory"
)

// refInst is one warp instruction as the reference replay issues it.
type refInst struct {
	kind  isa.OpKind
	n     uint32 // compute: the largest lane's FLOPs; memory: len(lines)
	sum   uint64 // compute: the lanes' FLOPs summed
	lines []memory.Addr
}

// refReplay is the per-lane-cursor SIMT merge warps ran live before
// programs were compiled: each instruction rescans the warp's lanes from
// lane 0 for the leader, advances every unfinished lane whose next op has
// the leader's kind, and coalesces memory ops with the reference dedupe.
func refReplay(lanes []isa.Trace, warpsz, lineBytes int) [][]refInst {
	var warps [][]refInst
	for lo := 0; lo < len(lanes); lo += warpsz {
		var cur []laneCursor
		for _, tr := range lanes[lo:min(lo+warpsz, len(lanes))] {
			cur = append(cur, laneCursor{tr: tr})
		}
		var insts []refInst
		for {
			lead := -1
			for i := range cur {
				if !cur[i].done() {
					lead = i
					break
				}
			}
			if lead < 0 {
				break
			}
			in := refInst{kind: cur[lead].tr[cur[lead].idx].Kind}
			switch in.kind {
			case isa.OpCompute:
				for i := range cur {
					if lc := &cur[i]; !lc.done() && lc.tr[lc.idx].Kind == isa.OpCompute {
						in.n = max(in.n, lc.tr[lc.idx].N)
						in.sum += uint64(lc.tr[lc.idx].N)
					}
				}
			case isa.OpLoad, isa.OpLoadDep, isa.OpStore, isa.OpAtomic:
				in.lines = refCoalesce(cur, in.kind, lineBytes)
				in.n = uint32(len(in.lines))
			}
			refAdvance(cur, in.kind)
			insts = append(insts, in)
		}
		warps = append(warps, insts)
	}
	return warps
}

// ctaFromBytes decodes a fuzz input into one CTA's lane traces. The first
// byte picks the block size (1–96 lanes, so the last warp is often
// partial); each later 6-byte record is one op (lane, kind, 2-byte
// address, address space, size). Every kind appears — OpLoad beside
// OpLoadDep, syncs, scratch — with zero-FLOP compute, 0-byte memory ops
// and addresses in a 16 KB window, so lanes diverge, collide on lines and
// straddle line boundaries often. Lanes no record names stay empty.
func ctaFromBytes(data []byte) []isa.Trace {
	if len(data) == 0 {
		return make([]isa.Trace, 1)
	}
	lanes := make([]isa.Trace, 1+int(data[0])%96)
	for data = data[1:]; len(data) >= 6; data = data[6:] {
		lane := int(data[0]) % len(lanes)
		kind := isa.OpKind(data[1] % 7)
		addr := memory.Addr(binary.LittleEndian.Uint16(data[2:])) % (16 << 10)
		addr += memory.Addr(data[4]%4) << 32
		n := uint32(data[5] % 200)
		lanes[lane] = append(lanes[lane], isa.Op{Kind: kind, Addr: addr, N: n})
	}
	return lanes
}

// FuzzCompileCTA checks compileCTA against the reference replay: every
// warp's program issues the same instructions in the same order, with the
// same FLOPs and the same coalesced lines. The program is compiled twice
// on one compiler into one recycled prog — first for the lanes reversed —
// so reuse cannot leak a previous CTA's instructions or lines.
func FuzzCompileCTA(f *testing.F) {
	f.Add([]byte{31, 0, 0, 0, 0, 0, 3, 1, 0, 4, 0, 0, 3, 2, 0, 0, 1, 0, 200})
	f.Add([]byte{39, 5, 1, 0x7f, 0, 1, 130, 38, 2, 0x80, 0, 1, 4, 7, 6, 0, 0, 0, 0, 8, 6, 0, 0, 0, 0})
	f.Add([]byte{70, 1, 1, 0x7e, 0, 0, 9, 2, 2, 0x7e, 0, 0, 9, 65, 5, 0, 0, 0, 0, 66, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const warpsz, lineBytes = 32, 128
		lanes := ctaFromBytes(data)
		want := refReplay(lanes, warpsz, lineBytes)

		rev := make([]isa.Trace, len(lanes))
		for i, tr := range lanes {
			rev[len(lanes)-1-i] = tr
		}
		var c compiler
		p := new(prog)
		c.compileCTA(p, rev, warpsz, lineBytes)
		c.compileCTA(p, lanes, warpsz, lineBytes)

		if len(p.opEnd) != len(want) || len(p.lineEnd) != len(want) {
			t.Fatalf("%d lanes: %d/%d warp ends, want %d", len(lanes), len(p.opEnd), len(p.lineEnd), len(want))
		}
		for wi, insts := range want {
			ops, lines := p.warp(wi)
			if len(ops) != len(insts) {
				t.Fatalf("warp %d: %d instructions, want %d", wi, len(ops), len(insts))
			}
			line := 0
			for j, in := range insts {
				op := ops[j]
				if op.kind != in.kind || op.n != in.n || op.sum != in.sum {
					t.Fatalf("warp %d inst %d: {kind %d n %d sum %d}, want {kind %d n %d sum %d}",
						wi, j, op.kind, op.n, op.sum, in.kind, in.n, in.sum)
				}
				for _, a := range in.lines {
					if lines[line] != a {
						t.Fatalf("warp %d inst %d: lines %v, want %v", wi, j, lines[line:line+len(in.lines)], in.lines)
					}
					line++
				}
			}
			if line != len(lines) {
				t.Fatalf("warp %d: %d lines, want %d", wi, len(lines), line)
			}
		}
	})
}

// streamCTA builds a block-lane CTA of the load/compute/store kernel the
// device benchmarks use: unit-stride float32 load, 2 FLOPs, store.
func streamCTA(block int) *isa.Arena {
	ar := new(isa.Arena)
	buf := ar.Open(0)
	for i := 0; i < block; i++ {
		a := memory.Addr(4 * i)
		buf = append(buf,
			isa.Op{Kind: isa.OpLoad, Addr: a, N: 4},
			isa.Op{Kind: isa.OpCompute, N: 2},
			isa.Op{Kind: isa.OpStore, Addr: 1<<20 + a, N: 4})
		buf = ar.EndLane(buf)
	}
	ar.Seal()
	return ar
}

// TestCompileCTAZeroAlloc: once the pool is warm, compiling a CTA and
// recycling its program allocates nothing.
func TestCompileCTAZeroAlloc(t *testing.T) {
	g := &GPU{warpsz: 32, LineBytes: 128}
	k := &Kernel{Name: "k", ThreadsPerTA: 256}
	ar := streamCTA(256)
	var c compiler
	if a := testing.AllocsPerRun(100, func() {
		g.progs.put(g.compile(&c, k, ar))
	}); a != 0 {
		t.Fatalf("compile allocates %.1f/op, want 0", a)
	}
}

// TestProgPoolBounded: one outsized CTA must not leave pooled programs
// outsized. A resident set of programs cycles through the pool; once an
// outsized CTA's program is reused for a normal CTA, every pooled program
// is back within the isa.Reserve rule of its CTA's exact size.
func TestProgPoolBounded(t *testing.T) {
	const keep = 1 << 12 // isa's arenaKeep: capacity kept regardless of size
	g := &GPU{warpsz: 32, LineBytes: 128}
	k := &Kernel{Name: "k", ThreadsPerTA: 256}
	var comp compiler
	small := streamCTA(256)
	big := new(isa.Arena)
	buf := big.Open(0)
	for i := 0; i < 256; i++ {
		for j := 0; j < 600; j++ { // every lane its own line: 8 warps × 600 ops
			buf = append(buf, isa.Op{Kind: isa.OpLoad, Addr: memory.Addr(128 * (256*j + i)), N: 4})
		}
		buf = big.EndLane(buf)
	}
	big.Seal()

	resident := func(last *isa.Arena) {
		var held []*prog
		for i := 0; i < 8; i++ {
			held = append(held, g.compile(&comp, k, small))
		}
		held = append(held, g.compile(&comp, k, last))
		for _, p := range held {
			g.progs.put(p)
		}
	}
	resident(small)
	resident(big)
	if p := g.progs.free[len(g.progs.free)-1]; cap(p.ops) != 8*600 || cap(p.lines) != 600*256 {
		t.Fatalf("outsized CTA compiled into %d ops / %d lines of capacity, want its exact size", cap(p.ops), cap(p.lines))
	}
	resident(small)
	if g.progs.made != 9 {
		t.Errorf("built %d programs for a resident set of 9", g.progs.made)
	}
	nOps, nLines := 8*3, 8*2 // streamCTA: load, compute, store per warp; one line each memory op
	for i, p := range g.progs.free {
		if c := cap(p.ops); c > 4*nOps && c > keep {
			t.Errorf("pooled program %d keeps %d ops of capacity for %d-op CTAs", i, c, nOps)
		}
		if c := cap(p.lines); c > 4*nLines && c > keep {
			t.Errorf("pooled program %d keeps %d lines of capacity for %d-line CTAs", i, c, nLines)
		}
	}
}

// BenchmarkCompileCTA measures compiling one 256-lane CTA of a
// load/compute/store kernel into a recycled program, arena hand-back
// included.
func BenchmarkCompileCTA(b *testing.B) {
	g := &GPU{warpsz: 32, LineBytes: 128}
	k := &Kernel{Name: "k", ThreadsPerTA: 256}
	ar := streamCTA(256)
	var c compiler
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.progs.put(g.compile(&c, k, ar))
	}
}
