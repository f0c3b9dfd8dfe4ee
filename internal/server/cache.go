package server

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fsx"
	"repro/internal/journal"
)

// Cache is the daemon's content-addressed store, and its only one. It
// holds two kinds of entry: a run entry per completed run, keyed by its
// run fingerprint (see runs.go), and a rendered sweep document per
// completed sweep, keyed by its sweep fingerprint. Entries are written atomically (temp
// file, fsync, rename, directory fsync) and verified on every read by a
// CRC32-Castagnoli checksum over the body. A corrupt entry — bit rot, a
// torn write that survived, an operator's stray edit — is quarantined:
// renamed aside with a unique ".corrupt" suffix and logged, and the
// caller recomputes. The store never refuses service over a bad entry: a
// lost run or document costs a recompute, never a wrong answer.
//
// The entry format is a one-line header followed by the raw body bytes:
//
//	hetsimd-cache 1 <crc32c %08x> <body length>\n<body>
//
// Serving the exact stored bytes (not a re-marshal) is what makes a cache
// hit byte-identical to the miss that populated it.
//
// The cache also keeps an in-memory recency index — entry sizes plus a
// logical access clock bumped on every hit — so the state-dir garbage
// collector can evict least-recently-used entries under a byte quota
// without trusting filesystem atimes (noatime mounts are the production
// norm). The index persists across restarts through a best-effort sidecar
// file (index.lru): losing it costs only eviction ordering, never
// correctness, so it is written without fsync and rebuilt from the
// directory listing when absent.
type Cache struct {
	dir  string
	fs   fsx.FS
	logf func(format string, args ...any)

	mu      sync.Mutex // guards index, tmps, quarantine renames
	seq     uint64     // logical access clock
	entries map[string]*entryMeta
	tmps    map[string]bool // in-flight temp basenames (GC must not reap)

	// onQuarantine, when set, observes each corrupt-entry quarantine (the
	// server wires a metrics counter here).
	onQuarantine func()
}

// entryMeta is one entry's recency-index row.
type entryMeta struct {
	size int64  // file size (header + body)
	last uint64 // access clock at last Get/Put (0 = not seen since load)
}

// cacheMagic stamps entry headers; a version bump invalidates old entries
// (they quarantine and recompute — the safe failure mode).
const cacheMagic = "hetsimd-cache 1"

// indexFile is the recency sidecar's name inside the cache dir.
const indexFile = "index.lru"

// NewCacheFS opens (creating if needed) a cache rooted at dir on fsys.
// logf receives quarantine and write-failure diagnostics (nil discards
// them).
func NewCacheFS(fsys fsx.FS, dir string, logf func(format string, args ...any)) (*Cache, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache dir: %w", err)
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c := &Cache{dir: dir, fs: fsys, logf: logf,
		entries: map[string]*entryMeta{}, tmps: map[string]bool{}}
	c.loadIndex()
	return c, nil
}

// loadIndex rebuilds the recency index: entry names and sizes from the
// directory listing (the ground truth), access order from the sidecar
// when one survives. Entries missing from the sidecar sort oldest.
func (c *Cache) loadIndex() {
	ents, err := c.fs.ReadDir(c.dir)
	if err != nil {
		c.logf("cache: index scan: %v", err)
		return
	}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".entry") || e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		c.entries[strings.TrimSuffix(name, ".entry")] = &entryMeta{size: info.Size()}
	}
	data, err := c.fs.ReadFile(filepath.Join(c.dir, indexFile))
	if err != nil {
		return // no sidecar: everything ties at last=0
	}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for sc.Scan() {
		var last uint64
		var key string
		if _, err := fmt.Sscanf(sc.Text(), "%d %s", &last, &key); err != nil {
			continue
		}
		if m, ok := c.entries[key]; ok {
			m.last = last
			if last > c.seq {
				c.seq = last
			}
		}
	}
}

// SaveIndex persists the recency sidecar (temp + rename, no fsync: the
// index is an eviction-ordering hint, not durable state). Best effort —
// failures are logged and swallowed.
func (c *Cache) SaveIndex() {
	c.mu.Lock()
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%d %s\n", c.entries[k].last, k)
	}
	c.mu.Unlock()

	tmp, err := c.fs.CreateTemp(c.dir, indexFile+".tmp-*")
	if err != nil {
		c.logf("cache: save index: %v", err)
		return
	}
	c.trackTmp(filepath.Base(tmp.Name()), true)
	defer c.trackTmp(filepath.Base(tmp.Name()), false)
	_, werr := tmp.Write([]byte(b.String()))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		c.fs.Remove(tmp.Name())
		c.logf("cache: save index: write=%v close=%v", werr, cerr)
		return
	}
	if err := c.fs.Rename(tmp.Name(), filepath.Join(c.dir, indexFile)); err != nil {
		c.fs.Remove(tmp.Name())
		c.logf("cache: save index: %v", err)
	}
}

// trackTmp marks (or unmarks) an in-flight temp basename so the GC's
// orphan sweep never reaps a temp file mid-write.
func (c *Cache) trackTmp(base string, inFlight bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if inFlight {
		c.tmps[base] = true
	} else {
		delete(c.tmps, base)
	}
}

// TmpInFlight reports whether base is a temp file some Put is writing
// right now (the GC's guard).
func (c *Cache) TmpInFlight(base string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tmps[base]
}

// path maps a key (a hex fingerprint — already filesystem-safe) to its
// entry file.
func (c *Cache) path(key string) string { return filepath.Join(c.dir, key+".entry") }

// touch records key's size and bumps its recency clock (creating its
// row after a Put).
func (c *Cache) touch(key string, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	c.entries[key] = &entryMeta{size: size, last: c.seq}
}

// Get returns the verified body for key, or (nil, false) on a miss. A
// present-but-corrupt entry is quarantined (renamed to a unique
// <key>.entry.corrupt[.N] name, never clobbering an earlier quarantine)
// and reported as a miss, so the caller recomputes and overwrites it with
// a good entry.
func (c *Cache) Get(key string) ([]byte, bool) {
	path := c.path(key)
	data, err := c.fs.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			c.logf("cache: read %s: %v", path, err)
		}
		return nil, false
	}
	body, err := parseEntry(data)
	if err != nil {
		c.quarantine(key, path, err)
		return nil, false
	}
	c.touch(key, int64(len(data)))
	return body, true
}

// parseEntry validates one entry file and returns its body.
func parseEntry(data []byte) ([]byte, error) {
	nl := strings.IndexByte(string(data[:min(len(data), 64)]), '\n')
	if nl < 0 {
		return nil, fmt.Errorf("no header line")
	}
	fields := strings.Fields(string(data[:nl]))
	if len(fields) != 4 || fields[0]+" "+fields[1] != cacheMagic {
		return nil, fmt.Errorf("bad header %q", string(data[:nl]))
	}
	wantCRC, err := strconv.ParseUint(fields[2], 16, 32)
	if err != nil {
		return nil, fmt.Errorf("bad checksum field: %v", err)
	}
	wantLen, err := strconv.Atoi(fields[3])
	if err != nil || wantLen < 0 {
		return nil, fmt.Errorf("bad length field %q", fields[3])
	}
	body := data[nl+1:]
	if len(body) != wantLen {
		return nil, fmt.Errorf("body is %d bytes, header says %d", len(body), wantLen)
	}
	if got := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)); got != uint32(wantCRC) {
		return nil, fmt.Errorf("checksum mismatch (want %08x, got %08x)", wantCRC, got)
	}
	return body, nil
}

// quarantine renames a damaged entry aside and logs it. Renaming (rather
// than deleting) preserves the evidence for post-mortem; renaming (rather
// than refusing) lets the caller recompute and move on. The destination
// is the first unused <path>.corrupt[.N] name, so repeated corruption of
// one key keeps every specimen instead of clobbering the evidence.
func (c *Cache) quarantine(key, path string, cause error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.onQuarantine != nil {
		c.onQuarantine()
	}
	delete(c.entries, key)
	q := path + ".corrupt"
	for i := 1; i < 10000; i++ {
		if _, err := c.fs.Stat(q); err != nil {
			break
		}
		q = fmt.Sprintf("%s.corrupt.%d", path, i)
	}
	if err := c.fs.Rename(path, q); err != nil {
		c.logf("cache: quarantine %s: %v (entry was corrupt: %v)", path, err, cause)
		return
	}
	now := time.Now()
	c.fs.Chtimes(q, now, now) // GC ages quarantines from quarantine time
	// Make the rename durable so a crash cannot resurrect the corrupt
	// entry under its serving name.
	if err := c.fs.SyncDir(c.dir); err != nil {
		c.logf("cache: quarantine %s: %v", path, err)
	}
	c.logf("cache: quarantined corrupt entry %s -> %s: %v", path, q, cause)
}

// Put durably stores body under key: temp file in the same directory,
// contents fsync'd, atomic rename over any existing entry, directory
// fsync. Readers racing a Put see either the old complete entry or the
// new one, never a torn hybrid.
func (c *Cache) Put(key string, body []byte) error {
	path := c.path(key)
	header := fmt.Sprintf("%s %08x %d\n", cacheMagic,
		crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)), len(body))
	tmp, err := c.fs.CreateTemp(c.dir, key+".tmp-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	c.trackTmp(filepath.Base(tmp.Name()), true)
	defer c.trackTmp(filepath.Base(tmp.Name()), false)
	defer c.fs.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write([]byte(header))
	if err == nil {
		_, err = tmp.Write(body)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("cache: write: %w", err)
	}
	if err := c.fs.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if err := journal.SyncDirOn(c.fs, c.dir); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	c.touch(key, int64(len(header)+len(body)))
	return nil
}

// Remove evicts key's entry from disk and the index. A missing file is
// not an error (a concurrent quarantine or a crash already took it).
func (c *Cache) Remove(key string) error {
	c.mu.Lock()
	delete(c.entries, key)
	c.mu.Unlock()
	if err := c.fs.Remove(c.path(key)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Len counts stored (non-quarantined) entries, for the health endpoint.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// lruEntry is one row of the eviction ordering.
type lruEntry struct {
	key  string
	size int64
	last uint64
}

// LRU returns the entries oldest-access-first (ties broken by key so the
// order — and therefore eviction — is deterministic).
func (c *Cache) LRU() []lruEntry {
	c.mu.Lock()
	out := make([]lruEntry, 0, len(c.entries))
	for k, m := range c.entries {
		out = append(out, lruEntry{key: k, size: m.size, last: m.last})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].last != out[j].last {
			return out[i].last < out[j].last
		}
		return out[i].key < out[j].key
	})
	return out
}
