// Package isa defines the abstract instruction trace format shared by the
// CPU and GPU timing models. Benchmarks execute functionally as ordinary Go
// code; the access-recording layer in internal/device turns each software
// thread's loads, stores, atomics, and compute into a compact Op sequence
// that the timing models replay.
package isa

import "repro/internal/memory"

// OpKind discriminates trace operations.
type OpKind uint8

const (
	// OpCompute models N arithmetic operations (FLOPs) per lane.
	OpCompute OpKind = iota
	// OpLoad is a global-memory read of N bytes at Addr.
	OpLoad
	// OpLoadDep is a load whose value gates further progress (pointer
	// chase); the CPU model serializes on it instead of overlapping it in
	// the MLP window. The GPU model treats it like OpLoad (warps always
	// stall on use).
	OpLoadDep
	// OpStore is a global-memory write of N bytes at Addr.
	OpStore
	// OpAtomic is a read-modify-write of N bytes at Addr.
	OpAtomic
	// OpScratch is a GPU scratchpad (shared memory) access: occupies an
	// issue slot but never reaches the memory system. On the CPU it is a
	// register-file/stack access and is free.
	OpScratch
	// OpSync is a CTA-wide barrier on the GPU; a no-op on the CPU.
	OpSync
)

// Op is one replayable trace operation. Compact: 16 bytes.
type Op struct {
	Addr memory.Addr
	N    uint32 // FLOPs for OpCompute, bytes for memory ops
	Kind OpKind
}

// Trace is one software thread's (or one GPU lane's) ordered op sequence.
type Trace []Op

// Stats summarizes a trace.
type Stats struct {
	FLOPs      uint64
	Loads      uint64
	Stores     uint64
	Atomics    uint64
	ScratchOps uint64
}

// Summarize tallies a trace.
func Summarize(tr Trace) Stats {
	var s Stats
	for _, op := range tr {
		switch op.Kind {
		case OpCompute:
			s.FLOPs += uint64(op.N)
		case OpLoad, OpLoadDep:
			s.Loads++
		case OpStore:
			s.Stores++
		case OpAtomic:
			s.Atomics++
		case OpScratch:
			s.ScratchOps++
		}
	}
	return s
}

// Arena holds the lane traces of one CTA (or one CPU task thread) in a
// single flat op buffer: the generator appends every lane's ops back to
// back and Seal cuts the buffer into per-lane views. Open reuses the
// buffer while it suits the sizing hint, so a generator that recycles
// arenas once their traces retire stops allocating after warm-up.
type Arena struct {
	// Lanes holds the per-lane traces after Seal, in lane order.
	Lanes []Trace
	ops   Trace
	ends  []int
}

// arenaKeep is the element capacity a recycled buffer may keep regardless
// of hints (64 KB of ops): below it, resizing would cost more than the
// memory it frees.
const arenaKeep = 1 << 12

// Reserve empties a recycled buffer for reuse, sized for hint elements. A
// buffer smaller than hint, or more than four times larger (and above
// arenaKeep elements), is replaced by one of exactly hint elements: a
// producer passing its previous item's size grows each buffer once rather
// than by doubling, and one outsized item does not leave every buffer it
// passes through outsized. hint 0 keeps the buffer as it is.
func Reserve[T any](buf []T, hint int) []T {
	if c := cap(buf); c < hint || (hint > 0 && c > 4*hint && c > arenaKeep) {
		return make([]T, 0, hint)
	}
	return buf[:0]
}

// Open empties a for reuse and returns its op buffer (length zero) sized
// for hint ops by the Reserve rule. The generator appends lane ops to the
// buffer, calling EndLane after each lane.
func (a *Arena) Open(hint int) Trace {
	a.Lanes = a.Lanes[:0]
	a.ends = a.ends[:0]
	a.ops = Reserve(a.ops, hint)
	return a.ops
}

// EndLane closes the current lane. buf is the op buffer with that lane's
// ops appended; it is returned for the next lane to continue appending.
func (a *Arena) EndLane(buf Trace) Trace {
	a.ops = buf
	a.ends = append(a.ends, len(buf))
	return buf
}

// Seal cuts the op buffer into per-lane traces once every lane has ended,
// and returns them (also in Lanes). Each lane's capacity is clipped to its
// length, so no lane can append into its neighbour.
func (a *Arena) Seal() []Trace {
	lo := 0
	for _, hi := range a.ends {
		a.Lanes = append(a.Lanes, a.ops[lo:hi:hi])
		lo = hi
	}
	return a.Lanes
}
