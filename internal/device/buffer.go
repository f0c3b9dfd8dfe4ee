package device

import (
	"fmt"
	"unsafe"

	"repro/internal/memory"
)

// Loc selects which memory an allocation lives in. In the heterogeneous
// processor both map to the single shared space; the distinction still
// matters for page mapping (Host allocations were touched by the CPU before
// the ROI and are resident; Device allocations fault on GPU first touch).
type Loc int

const (
	// Host memory: CPU-resident, pages pre-mapped.
	Host Loc = iota
	// Device memory: GPU-side (discrete) or shared-but-untouched (hetero).
	Device
)

// AllocOpt modifies an allocation.
type AllocOpt func(*allocOpts)

type allocOpts struct {
	misaligned bool
}

// Misaligned allocates without cache-line alignment, modelling the paper's
// observation that CPU-GPU-shared allocations in limited-copy benchmarks can
// lose the CUDA allocator's line alignment and inflate GPU coalescing
// traffic.
func Misaligned() AllocOpt { return func(o *allocOpts) { o.misaligned = true } }

// Alloc is one raw allocation: a named physical range.
type Alloc struct {
	Name string
	Base memory.Addr
	Size int
	Loc  Loc
}

// Buf is a typed view over an allocation: V holds the functional data; A
// carries the simulated physical placement.
type Buf[T any] struct {
	A *Alloc
	V []T
}

// Len reports element count.
func (b *Buf[T]) Len() int { return len(b.V) }

// ElemSize reports the byte size of one element of b. It is a property of
// T alone (A.Size == len(V)*ElemSize() for every buffer), so the per-access
// recording path pays no division.
func (b *Buf[T]) ElemSize() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// AllocRaw reserves size bytes in the chosen memory and registers the pages
// per the ROI data-location rules.
func (s *System) AllocRaw(size int, name string, loc Loc, opts ...AllocOpt) *Alloc {
	var o allocOpts
	for _, f := range opts {
		f(&o)
	}
	sp := s.cpuSpace
	if loc == Device {
		sp = s.gpuSpace
	}
	align := s.Cfg.LineBytes
	if o.misaligned {
		// Offset off line alignment deliberately (but keep element natural
		// alignment) to model an unaligned shared allocator.
		align = 1
		sp.AllocAligned(4, 1) // skew the bump pointer
	}
	base := sp.AllocAligned(size, align)
	a := &Alloc{Name: name, Base: base, Size: size, Loc: loc}
	if loc == Host {
		// Host data was initialized by the CPU before the ROI: resident.
		s.vmm.MapRange(base, size)
	}
	return a
}

// AllocBuf reserves a typed buffer of n elements.
func AllocBuf[T any](s *System, n int, name string, loc Loc, opts ...AllocOpt) *Buf[T] {
	var z T
	es := int(unsafe.Sizeof(z))
	if es == 0 {
		panic(fmt.Sprintf("device: zero-sized element type for %s", name))
	}
	a := s.AllocRaw(n*es, name, loc, opts...)
	return &Buf[T]{A: a, V: make([]T, n)}
}

// ToDevice mirrors the paper's porting methodology: in the discrete system
// it allocates a device copy and schedules an H2D memcpy; in the
// heterogeneous processor the GPU accesses the CPU allocation directly and
// the copy is eliminated. It returns the buffer GPU kernels should use and
// the copy handle (nil when eliminated).
func ToDevice[T any](s *System, host *Buf[T], deps ...*Handle) (*Buf[T], *Handle) {
	if s.Unified() {
		return host, nil
	}
	dev := AllocBuf[T](s, len(host.V), host.A.Name+"_dev", Device)
	h := MemcpyAsync(s, dev, host, deps...)
	return dev, h
}

// FromDevice schedules the D2H copy that puts results back in CPU-visible
// memory (a no-op handle in the heterogeneous processor, where dev and host
// are the same buffer).
func FromDevice[T any](s *System, host, dev *Buf[T], deps ...*Handle) *Handle {
	if s.Unified() || dev == host {
		return s.afterAll(deps)
	}
	return MemcpyAsync(s, host, dev, deps...)
}
