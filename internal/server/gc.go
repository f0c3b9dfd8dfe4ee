package server

import (
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/journal"
)

// tmpOrphanAge guards the periodic tmp sweep: a temp file this old with
// no registered in-flight writer is an orphan from a crashed Put, not a
// write in progress. The startup sweep needs no age guard — nothing can
// be in flight before the server exists.
const tmpOrphanAge = 30 * time.Second

// gcLoop runs the periodic state-dir garbage collection until drain
// begins (a draining server's remaining work is finishing requests, not
// housekeeping).
func (s *Server) gcLoop() {
	t := time.NewTicker(s.cfg.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.runGC(false)
		case <-s.cfg.Drain.Done():
			return
		}
	}
}

// runGC is one garbage-collection pass over the store's directory:
// remove orphaned temp files and quarantines old enough to have been
// inspected, then re-measure usage and evict LRU entries down to the byte
// quota. GC is strictly advisory — every failure is counted and logged,
// none flips degraded mode or fails a request.
func (s *Server) runGC(startup bool) {
	s.m.gcRuns.Inc()
	dir := s.cache.dir
	ents, err := s.fs.ReadDir(dir)
	if err != nil {
		s.cfg.Logf("gc: scan %s: %v", dir, err)
		s.m.gcFailures.Inc()
	}
	now := time.Now()
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		path := filepath.Join(dir, name)
		switch {
		case strings.Contains(name, ".tmp-"):
			// A crashed Put's half-written temp file. At startup every one
			// is an orphan; while serving, skip registered in-flight writes
			// and anything too young to judge.
			if !startup {
				if s.cache.TmpInFlight(name) {
					continue
				}
				info, err := e.Info()
				if err != nil || now.Sub(info.ModTime()) < tmpOrphanAge {
					continue
				}
			}
			s.gcRemove(path, s.m.gcRemovedTmp, "orphaned temp file")
		case strings.Contains(name, ".corrupt"):
			// Quarantines are evidence; keep them long enough for a
			// post-mortem, then reclaim the space.
			info, err := e.Info()
			if err != nil || now.Sub(info.ModTime()) < s.cfg.CorruptAge {
				continue
			}
			s.gcRemove(path, s.m.gcRemovedCorrupt, "aged quarantine")
		}
	}
	s.enforceQuota()
}

// gcRemove removes one file, counting the outcome. A vanished file is
// success — someone else (a handler, a concurrent pass) got there first.
func (s *Server) gcRemove(path string, counter interface{ Inc() }, why string) {
	if err := s.fs.Remove(path); err != nil {
		if os.IsNotExist(err) {
			return
		}
		s.cfg.Logf("gc: remove %s: %v", path, err)
		s.m.gcFailures.Inc()
		return
	}
	counter.Inc()
	s.cfg.Logf("gc: removed %s (%s)", path, why)
}

// stateUsage sums the sizes of the files in the store's directory —
// entries, quarantines, temp files and the index alike (the layout has
// no nesting).
func (s *Server) stateUsage() int64 {
	var total int64
	ents, _ := s.fs.ReadDir(s.cache.dir)
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

// enforceQuota publishes the state dir's size and, when a quota is set
// and exceeded, evicts least-recently-used entries until the dir fits.
// Run entries and documents are evicted alike: an evicted run or sweep
// simply recomputes (and is stored again) on next request, and an
// in-flight sweep already holds the runs it read.
func (s *Server) enforceQuota() {
	total := s.stateUsage()
	s.m.stateBytes.Set(total)
	if s.cfg.StateQuota <= 0 || total <= s.cfg.StateQuota {
		return
	}
	evicted := 0
	for _, ent := range s.cache.LRU() {
		if total <= s.cfg.StateQuota {
			break
		}
		if err := s.cache.Remove(ent.key); err != nil {
			s.cfg.Logf("gc: evict %s: %v", ent.key, err)
			s.m.gcFailures.Inc()
			continue
		}
		s.m.evictedEntries.Inc()
		total -= ent.size
		evicted++
		s.cfg.Logf("gc: evicted entry %s (%d bytes, LRU) for quota", short(ent.key), ent.size)
	}
	if evicted > 0 {
		if err := journal.SyncDirOn(s.fs, s.cache.dir); err != nil {
			s.cfg.Logf("gc: %v", err)
		}
		s.cache.SaveIndex()
	}
	s.m.stateBytes.Set(s.stateUsage())
}
