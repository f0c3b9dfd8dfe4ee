// Package journal is an append-only, crash-safe write-ahead log of
// per-run sweep outcomes. The paper's evaluation sweep is hours of
// simulation; a crash, OOM kill, or operator interrupt without a journal
// discards every completed run. With one, a restarted sweep replays the
// journal, skips the runs it already has, and re-executes only the rest —
// producing output byte-identical to an uninterrupted sweep.
//
// The format is line-oriented JSONL, one record per line, each line
// guarded by a CRC32-Castagnoli checksum of its JSON body:
//
//	%08x <json>\n
//
// The first line is a header record naming the format version, the
// journal kind (which command wrote it), the sweep's config fingerprint,
// and the slot list. Every later line is one run outcome keyed by its
// slot name. Appends are fsync'd before Append returns, so a record is
// durable — a run either made it to stable storage or it will be re-run;
// there is no in-between.
//
// Recovery distinguishes a torn tail from corruption. A machine dying
// mid-write can tear at most the final line (appends are sequential and
// synced), so a bad LAST line is recovered by truncating it away. A bad
// line anywhere earlier means the file was edited or the disk lied —
// that is corruption, and OpenOn refuses it rather than silently dropping
// completed work.
//
// The fingerprint is the journal's staleness guard: it hashes everything
// that determines a sweep's results (system config, benchmark list and
// modes, fault plan, budgets). Opening a journal whose fingerprint does
// not match the current configuration fails loudly — resuming someone
// else's sweep would splice together results from two different
// experiments.
package journal

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/fsx"
)

// Version is the journal format version. A version bump invalidates old
// journals (they fail OpenOn), which is the safe failure mode for a format
// change: re-running a sweep is cheap next to silently misreading it.
const Version = 1

// castagnoli is the CRC polynomial table; Castagnoli over IEEE for its
// better error-detection spread (and hardware support on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrFingerprint reports a journal written by a different sweep
// configuration. Wrapped by the error OpenOn returns, so callers can
// errors.Is it and tell the operator to pass a fresh state dir.
var ErrFingerprint = errors.New("journal: config fingerprint mismatch")

// ErrCorrupt reports a journal damaged beyond the recoverable torn-tail
// case: a checksum failure before the final line, or an unreadable
// header.
var ErrCorrupt = errors.New("journal: corrupt")

// Header is the first record of every journal file.
type Header struct {
	// V is the format version (Version at write time).
	V int `json:"v"`
	// Kind names the producing command ("experiments", "hetsim"), so a
	// state dir handed to the wrong command fails clearly.
	Kind string `json:"kind"`
	// Fingerprint is the hex sweep-config hash the journal belongs to.
	Fingerprint string `json:"fingerprint"`
	// Slots is the ordered run-slot list at write time, recorded for
	// post-mortem readability (the fingerprint already covers it).
	Slots []string `json:"slots"`
}

// Record is one journaled run outcome. Payload is the run's serialized
// outcome, kept as raw JSON here so the journal stays agnostic of the
// harness types above it.
type Record struct {
	// Slot is the run's stable key in the sweep (e.g. "rodinia/bfs/copy").
	Slot string `json:"slot"`
	// Seq is the 1-based append order, a self-check against editing.
	Seq int `json:"seq"`
	// Payload is the outcome document.
	Payload json.RawMessage `json:"payload"`
}

// Journal is an open journal file in append mode. Not safe for
// concurrent use; the sweep serializes appends through its own lock.
type Journal struct {
	f    fsx.File
	path string
	seq  int // last sequence number written or replayed
}

// line formats one record line: an 8-hex-digit CRC of body, a space, the
// body, a newline.
func line(body []byte) []byte {
	out := make([]byte, 0, len(body)+10)
	out = append(out, fmt.Sprintf("%08x ", crc32.Checksum(body, castagnoli))...)
	out = append(out, body...)
	return append(out, '\n')
}

// parseLine validates one journal line and returns its JSON body.
func parseLine(ln string) ([]byte, error) {
	// "%08x " prefix: 8 hex digits and a space, then the body.
	if len(ln) < 10 || ln[8] != ' ' {
		return nil, fmt.Errorf("malformed line (no checksum prefix)")
	}
	want, err := strconv.ParseUint(ln[:8], 16, 32)
	if err != nil {
		return nil, fmt.Errorf("malformed checksum: %v", err)
	}
	body := ln[9:]
	if got := crc32.Checksum([]byte(body), castagnoli); got != uint32(want) {
		return nil, fmt.Errorf("checksum mismatch (want %08x, got %08x)", want, got)
	}
	return []byte(body), nil
}

// SyncDirOn fsyncs the directory at dir. A freshly created or renamed
// file is only durable once its directory entry is too: fsyncing the
// file flushes its contents, but the entry naming it lives in the
// directory, and a crash before the directory reaches stable storage can
// lose the file wholesale. Callers creating, renaming, or removing
// durable files follow up with SyncDirOn on the parent.
func SyncDirOn(fsys fsx.FS, dir string) error {
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("sync dir %s: %w", dir, err)
	}
	return nil
}

// writeHeader writes and syncs the header line into f.
func writeHeader(f fsx.File, kind, fingerprint string, slots []string) error {
	hdr, err := json.Marshal(Header{V: Version, Kind: kind, Fingerprint: fingerprint, Slots: slots})
	if err != nil {
		return fmt.Errorf("journal: marshal header: %w", err)
	}
	if _, err := f.Write(line(hdr)); err != nil {
		return fmt.Errorf("journal: write header: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("journal: sync header: %w", err)
	}
	return nil
}

// CreateOn starts a fresh journal at path on fsys, writing and syncing
// the header — and the parent directory entry — before returning. An
// existing file is truncated: the caller decides create-vs-resume, the
// journal just obeys. Callers pass fsx.OS for the real disk; tests (and
// the daemon's chaos suite) script the disk failing underneath it.
func CreateOn(fsys fsx.FS, path, kind, fingerprint string, slots []string) (*Journal, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: create: %w", err)
	}
	if err := writeHeader(f, kind, fingerprint, slots); err != nil {
		f.Close()
		return nil, err
	}
	// The header is durable in the file, but the file's own directory
	// entry is not until the directory is synced: a crash here could
	// otherwise lose the just-created journal entirely.
	if err := SyncDirOn(fsys, filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: create: %w", err)
	}
	return &Journal{f: f, path: path}, nil
}

// OpenOn replays an existing journal at path on fsys, validating every
// line, recovering a torn final line by truncation, and rejecting a
// journal whose kind or fingerprint does not match the caller's. It
// returns the journal positioned for appending plus the replayed records
// in append order (later records for the same slot supersede earlier
// ones; the caller applies that policy).
func OpenOn(fsys fsx.FS, path, kind, fingerprint string) (*Journal, []Record, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open: %w", err)
	}
	if st, serr := f.Stat(); serr == nil && st.Size() == 0 {
		// A zero-byte journal is the crash window between CreateOn's
		// OpenFile and its header write (or an interrupted truncate) —
		// nothing was ever recorded, so there is nothing to lose: treat
		// it as a brand-new journal rather than hard corruption, so a
		// restart can proceed.
		if err := writeHeader(f, kind, fingerprint, nil); err != nil {
			f.Close()
			return nil, nil, err
		}
		return &Journal{f: f, path: path}, nil, nil
	}
	recs, keep, err := replay(f, kind, fingerprint)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Recover the torn tail (if any) by truncating to the last good line,
	// then position for append.
	if err := f.Truncate(keep); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: seek: %w", err)
	}
	return &Journal{f: f, path: path, seq: len(recs)}, recs, nil
}

// replay validates the whole file: header first, then records. It
// returns the good records and the byte offset of the end of the last
// good line (the truncation point when the tail is torn).
func replay(f fsx.File, kind, fingerprint string) (recs []Record, keep int64, err error) {
	type badLine struct {
		n   int // 1-based line number
		err error
	}
	var bad *badLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26) // outcome payloads can be large
	var off int64
	n := 0
	for sc.Scan() {
		n++
		raw := sc.Text()
		lineLen := int64(len(raw)) + 1 // +\n
		if bad != nil {
			// A bad line followed by more lines is not a torn tail.
			return nil, 0, fmt.Errorf("%w: line %d: %v (followed by %d more lines)",
				ErrCorrupt, bad.n, bad.err, n-bad.n)
		}
		body, perr := parseLine(raw)
		if perr == nil && n == 1 {
			var hdr Header
			if uerr := json.Unmarshal(body, &hdr); uerr != nil {
				return nil, 0, fmt.Errorf("%w: bad header: %v", ErrCorrupt, uerr)
			} else if hdr.V != Version {
				return nil, 0, fmt.Errorf("%w: format version %d, this build reads %d",
					ErrCorrupt, hdr.V, Version)
			} else if hdr.Kind != kind {
				return nil, 0, fmt.Errorf("journal: written by %q, not %q — wrong state dir?", hdr.Kind, kind)
			} else if hdr.Fingerprint != fingerprint {
				return nil, 0, fmt.Errorf("%w: journal has %s, current config is %s — the sweep configuration changed; use a fresh state dir (or delete the stale journal) to start over",
					ErrFingerprint, short(hdr.Fingerprint), short(fingerprint))
			}
		}
		if perr == nil && n > 1 {
			// The checksum passed, so the line was fully written; a
			// semantic failure past this point is editing or a format
			// bug, never a torn write — hard corruption even on the
			// final line.
			var rec Record
			if uerr := json.Unmarshal(body, &rec); uerr != nil {
				return nil, 0, fmt.Errorf("%w: line %d: bad record: %v", ErrCorrupt, n, uerr)
			}
			if rec.Seq != n-1 {
				return nil, 0, fmt.Errorf("%w: line %d: sequence gap (record claims seq %d, expected %d)",
					ErrCorrupt, n, rec.Seq, n-1)
			}
			recs = append(recs, rec)
		}
		if perr != nil {
			// Maybe the torn tail — decided when we know if more follow.
			bad = &badLine{n: n, err: perr}
		} else {
			keep = off + lineLen
		}
		off += lineLen
	}
	if serr := sc.Err(); serr != nil {
		return nil, 0, fmt.Errorf("journal: read: %w", serr)
	}
	if bad != nil && bad.n == 1 {
		// Even a torn header is unrecoverable: there is nothing to resume.
		return nil, 0, fmt.Errorf("%w: header line: %v", ErrCorrupt, bad.err)
	}
	return recs, keep, nil
}

func short(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

// Append durably writes one outcome record. The record is on stable
// storage when Append returns nil.
func (j *Journal) Append(slot string, payload json.RawMessage) error {
	j.seq++
	body, err := json.Marshal(Record{Slot: slot, Seq: j.seq, Payload: payload})
	if err != nil {
		j.seq--
		return fmt.Errorf("journal: marshal record: %w", err)
	}
	if _, err := j.f.Write(line(body)); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	return nil
}

// Path reports the journal's file path (for operator messages).
func (j *Journal) Path() string { return j.path }

// Len reports how many records the journal holds (replayed + appended).
func (j *Journal) Len() int { return j.seq }

// Close syncs and closes the file.
func (j *Journal) Close() error {
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return fmt.Errorf("journal: sync on close: %w", err)
	}
	return j.f.Close()
}

// Fingerprint is a helper for building config fingerprints: it hashes a
// sequence of labeled parts into a stable hex digest. Parts are length-
// prefixed so no concatenation of different part lists collides.
type Fingerprint struct {
	parts []string
}

// Add appends one labeled part.
func (fp *Fingerprint) Add(label, value string) {
	fp.parts = append(fp.parts, label, value)
}

// Sum returns the hex digest over all parts added so far.
func (fp *Fingerprint) Sum() string {
	var b strings.Builder
	for _, p := range fp.parts {
		fmt.Fprintf(&b, "%d:%s", len(p), p)
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}
