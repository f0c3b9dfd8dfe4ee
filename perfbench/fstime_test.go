package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/fsx"
	"repro/internal/journal"
	"repro/internal/server"
)

// treeFiles reads every regular file under dir, keyed by relative path.
func treeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.Walk(dir, func(p string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		b, err := os.ReadFile(p)
		rel, _ := filepath.Rel(dir, p)
		out[rel] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameTree(t *testing.T, a, b map[string][]byte) {
	t.Helper()
	var names []string
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(a) != len(b) {
		t.Fatalf("file sets differ: %d vs %d files", len(a), len(b))
	}
	for _, n := range names {
		if !bytes.Equal(a[n], b[n]) {
			t.Errorf("%s differs with the timing FS", n)
		}
	}
}

// The timing FS must be invisible on disk: the same journal bytes through
// journal.CreateOn and experiments.OpenStateAtFS, and the same cache
// entries from a daemon serving through server.Config.FS.
func TestTimedFSBytesIdentical(t *testing.T) {
	tfs := newTimedFS(fsx.OS)
	write := func(fsys fsx.FS) map[string][]byte {
		dir := t.TempDir()
		j, err := journal.CreateOn(fsys, filepath.Join(dir, "a.journal"), "kind", "fp", []string{"s1", "s2"})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []string{"s1", "s2"} {
			if err := j.Append(s, json.RawMessage(`{"slot":"`+s+`"}`)); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		opts := experiments.SweepOpts{Only: []string{"rodinia/lud"}}
		state, err := experiments.OpenStateAtFS(fsys, filepath.Join(dir, "sweep.journal"), experiments.JournalKind, false, bench.SizeSmall, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := state.Close(); err != nil {
			t.Fatal(err)
		}
		return treeFiles(t, dir)
	}
	sameTree(t, write(fsx.OS), write(tfs))
	st := tfs.st.snap()
	if st.ops == 0 || st.syncs == 0 || st.writeBytes == 0 {
		t.Errorf("timing FS counted nothing: %+v", st)
	}

	serve := func(fsys fsx.FS) map[string][]byte {
		dir := t.TempDir()
		srv, err := server.New(server.Config{StateDir: dir, FS: fsys, GCInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		for i := 0; i < 2; i++ { // a miss, then a hit read through the FS
			resp, err := hs.Client().Post(hs.URL+"/v1/sweep", "application/json",
				strings.NewReader(`{"benchmarks":["rodinia/lud"],"size":"small"}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("status %d", resp.StatusCode)
			}
		}
		return treeFiles(t, dir)
	}
	before := tfs.st.snap()
	sameTree(t, serve(fsx.OS), serve(tfs))
	if d := tfs.st.snap().minus(before); d.readBytes == 0 || d.syncs == 0 {
		t.Errorf("daemon I/O not seen by the timing FS: %+v", d)
	}
}
