package gpucore

import (
	"encoding/binary"
	"testing"

	"repro/internal/isa"
	"repro/internal/memory"
)

// refCoalesce is the order-preserving reference dedupe: every
// participating lane's lines, in lane order, each kept at its first
// occurrence within the op.
func refCoalesce(lanes []laneCursor, kind isa.OpKind, lineBytes int) []memory.Addr {
	var out []memory.Addr
	seen := map[memory.Addr]bool{}
	for _, lc := range lanes {
		if lc.done() || lc.tr[lc.idx].Kind != kind {
			continue
		}
		op := lc.tr[lc.idx]
		n := memory.LinesSpanned(op.Addr, int(op.N), lineBytes)
		for j := 0; j < n; j++ {
			a := memory.LineAddr(op.Addr, lineBytes) + memory.Addr(j*lineBytes)
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}

// warpFromBytes decodes a fuzz input into one warp's lane traces: each
// 6-byte record is one op (lane, kind, 3-byte address, size). Addresses
// cluster in a 16 KB window so lanes collide on lines often.
func warpFromBytes(data []byte) []laneCursor {
	lanes := make([]laneCursor, 32)
	kinds := [...]isa.OpKind{isa.OpLoad, isa.OpStore, isa.OpAtomic, isa.OpCompute}
	for ; len(data) >= 6; data = data[6:] {
		lane := int(data[0]) % len(lanes)
		kind := kinds[data[1]%byte(len(kinds))]
		addr := memory.Addr(binary.LittleEndian.Uint16(data[2:])) % (16 << 10)
		addr += memory.Addr(data[4]) << 32 // spread across address spaces
		n := uint32(1 + data[5]%200)
		lanes[lane].tr = append(lanes[lane].tr, isa.Op{Kind: kind, Addr: addr, N: n})
	}
	return lanes
}

// FuzzCoalesce checks coalesce against the reference dedupe on every op of
// a random warp: same lines in the same (first-seen) order, appended after
// whatever the buffer already held, and the same lanes advanced.
func FuzzCoalesce(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 3, 1, 0, 4, 0, 0, 3, 2, 0, 0, 1, 0, 200})
	f.Add([]byte{5, 1, 0x7f, 0, 1, 130, 6, 1, 0x80, 0, 1, 4, 7, 2, 0xff, 0x3f, 0, 199})
	f.Fuzz(func(t *testing.T, data []byte) {
		const lineBytes = 128
		lanes := warpFromBytes(data)
		ref := warpFromBytes(data)
		prefix := []memory.Addr{1, 2, 3} // coalesce must leave a prior tail alone
		for step := 0; ; step++ {
			lead := -1
			for i := range ref {
				if !ref[i].done() {
					lead = i
					break
				}
			}
			if lead < 0 {
				return
			}
			kind := ref[lead].tr[ref[lead].idx].Kind
			want := refCoalesce(ref, kind, lineBytes)
			advanceLanes(ref, kind)
			got := coalesce(append([]memory.Addr(nil), prefix...), lanes, kind, lineBytes)
			if len(got) != len(prefix)+len(want) {
				t.Fatalf("op %d: %d lines, want %d (%v vs %v)", step, len(got)-len(prefix), len(want), got[len(prefix):], want)
			}
			for i, a := range want {
				if got[len(prefix)+i] != a {
					t.Fatalf("op %d: lines %v, want %v", step, got[len(prefix):], want)
				}
			}
			for i := range lanes {
				if lanes[i].idx != ref[i].idx {
					t.Fatalf("op %d: lane %d at op %d, want %d", step, i, lanes[i].idx, ref[i].idx)
				}
			}
		}
	})
}

// BenchmarkCoalesce measures coalescing one warp-wide memory op, for the
// three access shapes that dominate the suites: unit stride (32 lanes ×
// 4 B in one line), a 2-line float64 stride, and a scattered gather with
// one line per lane.
func BenchmarkCoalesce(b *testing.B) {
	shapes := []struct {
		name   string
		stride memory.Addr
		size   uint32
	}{
		{"unit", 4, 4},
		{"stride8", 8, 8},
		{"gather", 4096 + 128, 4},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			lanes := make([]laneCursor, 32)
			for i := range lanes {
				lanes[i].tr = isa.Trace{{Kind: isa.OpLoad, Addr: memory.Addr(i) * sh.stride, N: sh.size}}
			}
			var buf []memory.Addr
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range lanes {
					lanes[j].idx = 0
				}
				buf = coalesce(buf[:0], lanes, isa.OpLoad, 128)
			}
		})
	}
}

// TestCoalesceZeroAlloc: coalescing into the warp's warm scratch buffer
// allocates nothing.
func TestCoalesceZeroAlloc(t *testing.T) {
	lanes := make([]laneCursor, 32)
	for i := range lanes {
		lanes[i].tr = isa.Trace{{Kind: isa.OpLoad, Addr: memory.Addr(i) * 132, N: 8}}
	}
	buf := coalesce(nil, lanes, isa.OpLoad, 128)
	if a := testing.AllocsPerRun(1000, func() {
		for j := range lanes {
			lanes[j].idx = 0
		}
		buf = coalesce(buf[:0], lanes, isa.OpLoad, 128)
	}); a != 0 {
		t.Fatalf("coalesce allocates %.1f/op, want 0", a)
	}
}
