package main

import (
	"io/fs"
	"sync/atomic"
	"time"

	"repro/internal/fsx"
)

// timedFS is a pass-through fsx.FS that counts and times every operation.
// The traced run injects it through experiments.OpenStateAtFS and
// server.Config.FS; it never changes what reaches the disk.
type timedFS struct {
	fs fsx.FS
	st *fsStats
}

// fsStats are the persistence layer's counters. Reads are ReadFile and
// File.Read; syncs are File.Sync and SyncDir.
type fsStats struct {
	ops, syncs, syncNs, readNs, writeBytes, readBytes atomic.Int64
}

// fsSnap is a point-in-time copy of fsStats.
type fsSnap struct {
	ops, syncs, syncNs, readNs, writeBytes, readBytes int64
}

func (s *fsStats) snap() fsSnap {
	return fsSnap{s.ops.Load(), s.syncs.Load(), s.syncNs.Load(), s.readNs.Load(), s.writeBytes.Load(), s.readBytes.Load()}
}

func (a fsSnap) minus(b fsSnap) fsSnap {
	return fsSnap{a.ops - b.ops, a.syncs - b.syncs, a.syncNs - b.syncNs, a.readNs - b.readNs,
		a.writeBytes - b.writeBytes, a.readBytes - b.readBytes}
}

func (a fsSnap) plus(b fsSnap) fsSnap {
	return fsSnap{a.ops + b.ops, a.syncs + b.syncs, a.syncNs + b.syncNs, a.readNs + b.readNs,
		a.writeBytes + b.writeBytes, a.readBytes + b.readBytes}
}

func newTimedFS(inner fsx.FS) *timedFS { return &timedFS{fs: inner, st: &fsStats{}} }

func (t *timedFS) op() { t.st.ops.Add(1) }

func (t *timedFS) wrap(f fsx.File, err error) (fsx.File, error) {
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, st: t.st}, nil
}

func (t *timedFS) OpenFile(path string, flag int, perm fs.FileMode) (fsx.File, error) {
	t.op()
	return t.wrap(t.fs.OpenFile(path, flag, perm))
}

func (t *timedFS) ReadFile(path string) ([]byte, error) {
	t.op()
	t0 := time.Now()
	b, err := t.fs.ReadFile(path)
	t.st.readNs.Add(int64(time.Since(t0)))
	t.st.readBytes.Add(int64(len(b)))
	return b, err
}

func (t *timedFS) CreateTemp(dir, pattern string) (fsx.File, error) {
	t.op()
	return t.wrap(t.fs.CreateTemp(dir, pattern))
}

func (t *timedFS) Rename(oldpath, newpath string) error {
	t.op()
	return t.fs.Rename(oldpath, newpath)
}

func (t *timedFS) Remove(path string) error {
	t.op()
	return t.fs.Remove(path)
}

func (t *timedFS) MkdirAll(path string, perm fs.FileMode) error {
	t.op()
	return t.fs.MkdirAll(path, perm)
}

func (t *timedFS) ReadDir(path string) ([]fs.DirEntry, error) {
	t.op()
	return t.fs.ReadDir(path)
}

func (t *timedFS) Stat(path string) (fs.FileInfo, error) {
	t.op()
	return t.fs.Stat(path)
}

func (t *timedFS) SyncDir(dir string) error {
	t.op()
	t0 := time.Now()
	err := t.fs.SyncDir(dir)
	t.st.syncs.Add(1)
	t.st.syncNs.Add(int64(time.Since(t0)))
	return err
}

func (t *timedFS) Chtimes(path string, atime, mtime time.Time) error {
	t.op()
	return t.fs.Chtimes(path, atime, mtime)
}

// timedFile counts and times one open file's operations.
type timedFile struct {
	fsx.File
	st *fsStats
}

func (f *timedFile) Read(p []byte) (int, error) {
	f.st.ops.Add(1)
	t0 := time.Now()
	n, err := f.File.Read(p)
	f.st.readNs.Add(int64(time.Since(t0)))
	f.st.readBytes.Add(int64(n))
	return n, err
}

func (f *timedFile) Write(p []byte) (int, error) {
	f.st.ops.Add(1)
	n, err := f.File.Write(p)
	f.st.writeBytes.Add(int64(n))
	return n, err
}

func (f *timedFile) Seek(offset int64, whence int) (int64, error) {
	f.st.ops.Add(1)
	return f.File.Seek(offset, whence)
}

func (f *timedFile) Close() error {
	f.st.ops.Add(1)
	return f.File.Close()
}

func (f *timedFile) Sync() error {
	f.st.ops.Add(1)
	t0 := time.Now()
	err := f.File.Sync()
	f.st.syncs.Add(1)
	f.st.syncNs.Add(int64(time.Since(t0)))
	return err
}

func (f *timedFile) Truncate(size int64) error {
	f.st.ops.Add(1)
	return f.File.Truncate(size)
}

func (f *timedFile) Stat() (fs.FileInfo, error) {
	f.st.ops.Add(1)
	return f.File.Stat()
}

// setFSLayers reports one traced window's persistence counters, per op.
func setFSLayers(e *env, d fsSnap, ops float64) {
	e.setLayer("fsx.ops", "count", float64(d.ops)/ops)
	e.setLayer("fsx.sync_n", "count", float64(d.syncs)/ops)
	e.setLayer("fsx.sync_s", "s", float64(d.syncNs)/1e9/ops)
	e.setLayer("fsx.write_mb", "MB", float64(d.writeBytes)/1e6/ops)
	e.setLayer("fsx.read_mb", "MB", float64(d.readBytes)/1e6/ops)
	e.setLayer("fsx.read_s", "s", float64(d.readNs)/1e9/ops)
}
