package journal

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fsx"
)

const (
	testKind = "experiments"
	testFP   = "abc123fingerprint"
)

func newJournal(t *testing.T) (*Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := CreateOn(fsx.OS, path, testKind, testFP, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	return j, path
}

func appendN(t *testing.T, j *Journal, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		slot := string(rune('a' + i))
		if err := j.Append(slot, json.RawMessage(`{"run":"`+slot+`"}`)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	j, path := newJournal(t)
	appendN(t, j, 3)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := OpenOn(fsx.OS, path, testKind, testFP)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	for i, r := range recs {
		want := string(rune('a' + i))
		if r.Slot != want || r.Seq != i+1 {
			t.Fatalf("record %d = {%q, %d}, want {%q, %d}", i, r.Slot, r.Seq, want, i+1)
		}
		var payload struct{ Run string }
		if err := json.Unmarshal(r.Payload, &payload); err != nil || payload.Run != want {
			t.Fatalf("record %d payload %s: %v", i, r.Payload, err)
		}
	}
	if j2.Len() != 3 {
		t.Fatalf("Len = %d, want 3", j2.Len())
	}
}

func TestAppendAfterReopen(t *testing.T) {
	j, path := newJournal(t)
	appendN(t, j, 2)
	j.Close()

	j2, recs, err := OpenOn(fsx.OS, path, testKind, testFP)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d, want 2", len(recs))
	}
	if err := j2.Append("c", json.RawMessage(`{"run":"c"}`)); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	_, recs, err = OpenOn(fsx.OS, path, testKind, testFP)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].Slot != "c" || recs[2].Seq != 3 {
		t.Fatalf("after reopen+append: %+v", recs)
	}
}

// TestTornTailRecovered: a partial final line (the crash-mid-write case)
// is truncated away and the journal stays usable.
func TestTornTailRecovered(t *testing.T) {
	j, path := newJournal(t)
	appendN(t, j, 3)
	j.Close()

	// Tear the last line: chop bytes off the end of the file.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := OpenOn(fsx.OS, path, testKind, testFP)
	if err != nil {
		t.Fatalf("torn tail should recover, got %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records after torn tail, want 2", len(recs))
	}
	// The journal must be appendable after recovery, with the sequence
	// continuing from the last good record.
	if err := j2.Append("c", json.RawMessage(`{"run":"c2"}`)); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	_, recs, err = OpenOn(fsx.OS, path, testKind, testFP)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].Seq != 3 {
		t.Fatalf("post-recovery journal bad: %+v", recs)
	}
}

// TestCorruptMiddleRejected: a bad line with good lines after it cannot
// be a torn tail and must fail loudly instead of dropping records.
func TestCorruptMiddleRejected(t *testing.T) {
	j, path := newJournal(t)
	appendN(t, j, 3)
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	// Flip a byte inside line 3 (record 2)'s JSON body.
	lines[2] = strings.Replace(lines[2], `"run"`, `"ruX"`, 1)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = OpenOn(fsx.OS, path, testKind, testFP)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt middle line: got %v, want ErrCorrupt", err)
	}
}

func TestFingerprintMismatchRejected(t *testing.T) {
	j, path := newJournal(t)
	appendN(t, j, 1)
	j.Close()

	_, _, err := OpenOn(fsx.OS, path, testKind, "differentfingerprint")
	if !errors.Is(err, ErrFingerprint) {
		t.Fatalf("fingerprint mismatch: got %v, want ErrFingerprint", err)
	}
}

func TestKindMismatchRejected(t *testing.T) {
	j, path := newJournal(t)
	j.Close()

	_, _, err := OpenOn(fsx.OS, path, "hetsim", testFP)
	if err == nil || !strings.Contains(err.Error(), "wrong state dir") {
		t.Fatalf("kind mismatch: got %v", err)
	}
}

// TestTornHeaderRejected: a journal torn inside its very first line has
// nothing to resume from.
func TestTornHeaderRejected(t *testing.T) {
	j, path := newJournal(t)
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = OpenOn(fsx.OS, path, testKind, testFP)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn header: got %v, want ErrCorrupt", err)
	}
}

// TestEditedRecordRejected: a CRC-valid final line whose sequence number
// does not follow is editing, not a torn write — refuse it.
func TestEditedRecordRejected(t *testing.T) {
	j, path := newJournal(t)
	appendN(t, j, 2)
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	// Delete the middle record so the last record's seq gaps.
	out := lines[0] + lines[2]
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = OpenOn(fsx.OS, path, testKind, testFP)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "sequence gap") {
		t.Fatalf("seq gap: got %v, want ErrCorrupt sequence gap", err)
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	hdr, _ := json.Marshal(Header{V: Version + 1, Kind: testKind, Fingerprint: testFP})
	if err := os.WriteFile(path, line(hdr), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenOn(fsx.OS, path, testKind, testFP)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch: got %v", err)
	}
}

func TestFingerprintHelper(t *testing.T) {
	var a, b Fingerprint
	a.Add("size", "small")
	a.Add("bench", "rodinia/bfs|copy")
	b.Add("size", "small")
	b.Add("bench", "rodinia/bfs|copy")
	if a.Sum() != b.Sum() {
		t.Fatal("same parts must hash equal")
	}
	var c Fingerprint
	c.Add("size", "smallbench")
	c.Add("", "rodinia/bfs|copy")
	if a.Sum() == c.Sum() {
		t.Fatal("length-prefixing must prevent concatenation collisions")
	}
	var d Fingerprint
	d.Add("size", "large")
	d.Add("bench", "rodinia/bfs|copy")
	if a.Sum() == d.Sum() {
		t.Fatal("different values must hash differently")
	}
}

// TestZeroByteJournalTreatedAsNew: a zero-byte file is the crash window
// between Create's open and its header write. There is nothing recorded
// and therefore nothing to lose, so Open must proceed as a fresh journal
// instead of refusing — a restarted sweep should run, not wedge.
func TestZeroByteJournalTreatedAsNew(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	j, recs, err := OpenOn(fsx.OS, path, testKind, testFP)
	if err != nil {
		t.Fatalf("zero-byte journal should open as new, got %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("zero-byte journal replayed %d records, want 0", len(recs))
	}
	// It must behave as a real journal from here: appendable, and
	// reopenable with the header Open wrote on its behalf.
	if err := j.Append("a", json.RawMessage(`{"run":"a"}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err = OpenOn(fsx.OS, path, testKind, testFP)
	if err != nil {
		t.Fatalf("reopen after zero-byte recovery: %v", err)
	}
	if len(recs) != 1 || recs[0].Slot != "a" || recs[0].Seq != 1 {
		t.Fatalf("post-recovery records: %+v", recs)
	}
	// The recovered journal carries this caller's kind and fingerprint;
	// a different configuration must still be rejected.
	if _, _, err := OpenOn(fsx.OS, path, testKind, "otherfingerprint"); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("recovered journal fingerprint check: got %v, want ErrFingerprint", err)
	}
}

// TestSyncDir pins the directory-fsync helper CreateOn (and the hetsimd
// result cache) rely on for durability of file creation and rename.
func TestSyncDir(t *testing.T) {
	if err := SyncDirOn(fsx.OS, t.TempDir()); err != nil {
		t.Fatalf("SyncDir on a real directory: %v", err)
	}
	if err := SyncDirOn(fsx.OS, filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("SyncDir on a missing directory should fail")
	}
}

// TestCreateSyncsParentDir: Create must succeed (header + directory entry
// synced) in a freshly made nested directory — the layout the sweep
// commands produce with -state DIR on first use.
func TestCreateSyncsParentDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state", "journals")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	j, err := CreateOn(fsx.OS, filepath.Join(dir, "sweep.journal"), testKind, testFP, nil)
	if err != nil {
		t.Fatalf("Create in nested dir: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCreateTruncatesExisting pins that Create starts over rather than
// appending to a stale file.
func TestCreateTruncatesExisting(t *testing.T) {
	j, path := newJournal(t)
	appendN(t, j, 3)
	j.Close()

	j2, err := CreateOn(fsx.OS, path, testKind, testFP, nil)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()

	_, recs, err := OpenOn(fsx.OS, path, testKind, testFP)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("Create did not truncate: %d stale records", len(recs))
	}
}
