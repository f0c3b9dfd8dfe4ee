package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Counters is a named group of monotonically increasing counts. Hardware
// models expose one and the analysis layer reads them by name, keeping the
// models free of any dependency on the reporting code.
//
// Counter storage is slot-based: each name is interned once into a heap
// slot, and hot-path increments go through a Counter handle (a plain
// pointer) obtained from Handle at model-construction time — no string
// concatenation, no map hash, no allocation per increment. The only
// name-keyed API is the snapshot side (Get/Names/Snapshot/TakeDelta/Merge),
// a thin layer over the same slots.
type Counters struct {
	m map[string]*uint64
}

// Counter is an interned handle to one counter slot. Models resolve their
// handles once in their constructor (Counters.Handle) and increment through
// the handle in their hot paths. The zero Counter is invalid; check Valid
// before lazy resolution.
type Counter struct {
	v *uint64
}

// Inc increments the counter by 1.
func (c Counter) Inc() { *c.v++ }

// Add increments the counter by n.
func (c Counter) Add(n uint64) { *c.v += n }

// Value reads the counter.
func (c Counter) Value() uint64 { return *c.v }

// Valid reports whether the handle is bound to a slot.
func (c Counter) Valid() bool { return c.v != nil }

// NewCounters returns an empty group.
func NewCounters() *Counters { return &Counters{m: map[string]*uint64{}} }

// Handle interns name and returns its increment handle. Interning a name
// makes it visible to Snapshot/Names with value zero until first
// incremented.
func (c *Counters) Handle(name string) Counter {
	p, ok := c.m[name]
	if !ok {
		p = new(uint64)
		c.m[name] = p
	}
	return Counter{v: p}
}

// ComponentHandles interns one counter per Component, named
// prefix+Component.String(), and returns them as a fixed array indexed by
// Component — the pattern per-requester counters use to avoid concatenating
// the component name on every access.
func (c *Counters) ComponentHandles(prefix string) [NumComponents]Counter {
	var out [NumComponents]Counter
	for comp := Component(0); comp < NumComponents; comp++ {
		out[comp] = c.Handle(prefix + comp.String())
	}
	return out
}

// Get reads a counter (zero if never written).
func (c *Counters) Get(name string) uint64 {
	if p, ok := c.m[name]; ok {
		return *p
	}
	return 0
}

// Names lists all counter names in sorted order.
func (c *Counters) Names() []string {
	out := make([]string, 0, len(c.m))
	for k := range c.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Snapshot copies the current counter values.
func (c *Counters) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(c.m))
	for k, p := range c.m {
		out[k] = *p
	}
	return out
}

// TakeDelta returns the non-zero counter increases since prev (a map from
// a previous Snapshot/TakeDelta call) and advances prev to the current
// values in place. Phase-scoped snapshots are built from this: the delta
// of every counter across one pipeline-stage boundary. Every key is synced
// into prev — including zero-delta ones — so prev always equals the
// current snapshot afterwards and can never go stale.
func (c *Counters) TakeDelta(prev map[string]uint64) map[string]uint64 {
	var out map[string]uint64
	for k, p := range c.m {
		v := *p
		if d := v - prev[k]; d != 0 {
			if out == nil {
				out = map[string]uint64{}
			}
			out[k] = d
		}
		prev[k] = v
	}
	return out
}

// Merge adds every counter from other into c.
func (c *Counters) Merge(other *Counters) {
	for k, p := range other.m {
		if v := *p; v != 0 {
			c.Handle(k).Add(v)
		}
	}
}

// String renders the group one counter per line, sorted by name.
func (c *Counters) String() string {
	var b strings.Builder
	for _, k := range c.Names() {
		fmt.Fprintf(&b, "%-40s %12d\n", k, *c.m[k])
	}
	return b.String()
}
