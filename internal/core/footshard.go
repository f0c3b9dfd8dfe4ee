package core

import (
	"math/bits"

	"repro/internal/memory"
	"repro/internal/stats"
)

// footprint is the touched-line table behind the Figure 4 partition: the
// set of components that touched each line, in a dense table indexed by
// line number.
type footprint struct {
	lines memory.Table[stats.ComponentSet]
	n     uint64 // lines with a non-empty set
	shift uint   // log2 of the line size
}

func newFootprint(lineBytes int) footprint { return footprint{shift: lineShift(lineBytes)} }

// lineShift converts a line size to the shift that turns an address into a
// dense-table line index.
func lineShift(lineBytes int) uint {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		panic("core: line size must be a positive power of two")
	}
	return uint(bits.TrailingZeros(uint(lineBytes)))
}

// touch records that comp accessed [addr, addr+size).
func (f *footprint) touch(comp stats.Component, addr memory.Addr, size int) {
	if size <= 0 {
		return
	}
	bit := stats.ComponentSet(0).Set(comp)
	last := uint64(addr+memory.Addr(size)-1) >> f.shift
	for l := uint64(addr) >> f.shift; l <= last; l++ {
		e := f.lines.At(l)
		if *e == 0 {
			f.n++
		}
		*e |= bit
	}
}

// merge ORs o's sets into f, line by line.
func (f *footprint) merge(o *footprint) {
	o.lines.Leaves(func(first uint64, leaf *[memory.TableLeaf]stats.ComponentSet) {
		for i, set := range leaf {
			if set == 0 {
				continue
			}
			e := f.lines.At(first + uint64(i))
			if *e == 0 {
				f.n++
			}
			*e |= set
		}
	})
}

// FootprintShard is a private, single-goroutine footprint accumulator for
// the parallel engine's off-thread workers. Footprint membership is a pure
// set union — which lines a component touched, not when — so workers can
// Touch into shards with no ordering relationship to the timing clock and
// the run merges them into the Collector before reporting. The merge is a
// commutative per-line OR of component bitmasks, so the merged table is
// identical for every worker count and schedule.
type FootprintShard struct {
	foot footprint
}

// NewFootprintShard builds an empty shard at the given line granularity.
func NewFootprintShard(lineBytes int) *FootprintShard {
	return &FootprintShard{foot: newFootprint(lineBytes)}
}

// Touch records that comp accessed [addr, addr+size), at line granularity.
// Identical logic to Collector.Touch, against the shard's private table.
func (s *FootprintShard) Touch(comp stats.Component, addr memory.Addr, size int) {
	s.foot.touch(comp, addr, size)
}

// MergeFootprint folds a worker shard into the collector's footprint table.
// Call only after the shard's owning worker has quiesced.
func (c *Collector) MergeFootprint(sh *FootprintShard) {
	c.foot.merge(&sh.foot)
}
