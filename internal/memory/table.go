package memory

// tableLeafBits sizes a Table leaf at 4096 entries: 512 KB of address
// space per leaf for a per-line table at 128-byte lines.
const tableLeafBits = 12

// TableLeaf is the number of entries in one Table leaf.
const TableLeaf = 1 << tableLeafBits

// Table is a dense map from an index (a line or page number) to T: a
// directory of fixed-size leaves, each allocated on first touch. The bump
// allocator bounds every simulated address, so the directory stays small
// (16384 pointers cover 8 GiB of 128-byte lines) and a lookup on a touched
// leaf is two loads — no hashing and no allocation. The zero Table is
// empty and ready to use.
type Table[T any] struct {
	dir []*[TableLeaf]T
}

// At returns a pointer to entry i, allocating its leaf on first touch.
func (t *Table[T]) At(i uint64) *T {
	d := i >> tableLeafBits
	if d >= uint64(len(t.dir)) {
		t.grow(d)
	}
	leaf := t.dir[d]
	if leaf == nil {
		leaf = new([TableLeaf]T)
		t.dir[d] = leaf
	}
	return &leaf[i&(TableLeaf-1)]
}

// Get returns entry i, or the zero T when its leaf was never touched.
func (t *Table[T]) Get(i uint64) T {
	if d := i >> tableLeafBits; d < uint64(len(t.dir)) {
		if leaf := t.dir[d]; leaf != nil {
			return leaf[i&(TableLeaf-1)]
		}
	}
	var z T
	return z
}

// grow extends the directory to cover leaf d, at least doubling it.
func (t *Table[T]) grow(d uint64) {
	n := 2 * uint64(len(t.dir))
	if n <= d {
		n = d + 1
	}
	dir := make([]*[TableLeaf]T, n)
	copy(dir, t.dir)
	t.dir = dir
}

// Leaves calls fn for every allocated leaf in index order; first is the
// index of the leaf's entry 0.
func (t *Table[T]) Leaves(fn func(first uint64, leaf *[TableLeaf]T)) {
	for d, leaf := range t.dir {
		if leaf != nil {
			fn(uint64(d)<<tableLeafBits, leaf)
		}
	}
}
