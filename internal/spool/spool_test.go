package spool

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var tAt = time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)

func testWriter(t *testing.T, opts Options) *Writer {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	w, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(w.Abort)
	return w
}

func rec(name string, kind Kind, payload string) Record {
	return Record{Kind: kind, Name: name, Payload: []byte(payload), At: tAt}
}

func TestAppendReadRoundTrip(t *testing.T) {
	w := testWriter(t, Options{})
	r := Record{
		Kind:    KindSnapshot,
		Name:    "device-42",
		Meta:    []byte(`{"chain":3}`),
		Payload: []byte("payload bytes"),
		At:      tAt,
	}
	loc, err := w.Append(r, nil)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	got, err := ReadRecord(loc, 0)
	if err != nil {
		t.Fatalf("ReadRecord: %v", err)
	}
	if got.Kind != r.Kind || got.Name != r.Name ||
		!bytes.Equal(got.Meta, r.Meta) || !bytes.Equal(got.Payload, r.Payload) ||
		!got.At.Equal(r.At) {
		t.Errorf("round trip: got %+v, want %+v", got, r)
	}
}

func TestCommitRunsCallbacksInOrder(t *testing.T) {
	w := testWriter(t, Options{Fsync: FsyncCommit})
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		if _, err := w.Append(rec("s", KindDelta, "d"), func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if len(order) != 0 {
		t.Fatalf("callbacks ran before Commit: %v", order)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[2] != 2 {
		t.Errorf("order = %v", order)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 {
		t.Errorf("callbacks re-ran: %v", order)
	}
}

func TestSegmentRollAndScan(t *testing.T) {
	dir := t.TempDir()
	w := testWriter(t, Options{Dir: dir, SegmentBytes: 256, Fsync: FsyncNever})
	var locs []Loc
	for i := 0; i < 20; i++ {
		loc, err := w.Append(rec(fmt.Sprintf("s%02d", i), KindSnapshot, strings.Repeat("x", 40)), nil)
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc)
	}
	if st := w.Stats(); st.Segments < 3 {
		t.Fatalf("Segments = %d, want several after rolling at 256B", st.Segments)
	}
	// Every loc remains readable across rolls.
	for i, loc := range locs {
		r, err := ReadRecord(loc, 0)
		if err != nil {
			t.Fatalf("ReadRecord(%d): %v", i, err)
		}
		if want := fmt.Sprintf("s%02d", i); r.Name != want {
			t.Errorf("record %d: name %q, want %q", i, r.Name, want)
		}
	}
	// ScanDir sees all records in append order.
	var names []string
	err := ScanDir(dir, 0, nil, func(loc Loc, r Record) error {
		names = append(names, r.Name)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 20 || names[0] != "s00" || names[19] != "s19" {
		t.Errorf("scanned %v", names)
	}
}

func TestReopenStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	w := testWriter(t, Options{Dir: dir, Fsync: FsyncNever})
	if _, err := w.Append(rec("a", KindSnapshot, "1"), nil); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	w2 := testWriter(t, Options{Dir: dir, Fsync: FsyncNever})
	if _, err := w2.Append(rec("b", KindSnapshot, "2"), nil); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("segments = %v, want two (no append to a sealed segment)", segs)
	}
	var names []string
	if err := ScanDir(dir, 0, nil, func(_ Loc, r Record) error {
		names = append(names, r.Name)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("scanned %v", names)
	}
}

func TestScanToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	w := testWriter(t, Options{Dir: dir, Fsync: FsyncNever})
	if _, err := w.Append(rec("keep", KindSnapshot, "intact"), nil); err != nil {
		t.Fatal(err)
	}
	loc, err := w.Append(rec("torn", KindSnapshot, "cut short"), nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Abort()

	fi, err := os.Stat(loc.Path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate at every offset inside the final record: the scan must
	// always return the intact record and warn about the tail.
	for cut := loc.Offset + 1; cut < fi.Size(); cut++ {
		data, err := os.ReadFile(loc.Path)
		if err != nil {
			t.Fatal(err)
		}
		tornPath := filepath.Join(t.TempDir(), "seg-00000001.spool")
		if err := os.WriteFile(tornPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var names []string
		warned := false
		err = ScanSegment(tornPath, 0, func(string, ...any) { warned = true }, func(_ Loc, r Record) error {
			names = append(names, r.Name)
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: scan error %v", cut, err)
		}
		if len(names) != 1 || names[0] != "keep" {
			t.Fatalf("cut %d: scanned %v, want [keep]", cut, names)
		}
		if !warned {
			t.Errorf("cut %d: no warning for the torn tail", cut)
		}
	}
}

func TestScanSkipsCorruptRemainder(t *testing.T) {
	dir := t.TempDir()
	w := testWriter(t, Options{Dir: dir, Fsync: FsyncNever})
	loc1, err := w.Append(rec("good", KindSnapshot, "1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	loc2, err := w.Append(rec("bad", KindSnapshot, "2"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(rec("after", KindSnapshot, "3"), nil); err != nil {
		t.Fatal(err)
	}
	w.Abort()

	// Flip a payload bit in the middle record.
	f, err := os.OpenFile(loc1.Path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, loc2.Offset+headerSize+2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var names []string
	warned := false
	err = ScanSegment(loc1.Path, 0, func(string, ...any) { warned = true }, func(_ Loc, r Record) error {
		names = append(names, r.Name)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "good" {
		t.Errorf("scanned %v, want only the record before the corruption", names)
	}
	if !warned {
		t.Error("no corruption warning")
	}
	// Direct reads agree: the good record reads, the corrupt one errors.
	if _, err := ReadRecord(loc1, 0); err != nil {
		t.Errorf("good record: %v", err)
	}
	if _, err := ReadRecord(loc2, 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt record error = %v, want ErrCorrupt", err)
	}
}

// TestVerifyFailsOnCorruptRecord: a byte flipped in the second of three
// records fails Verify with ErrCorrupt at that record's offset, where the
// recovery scan only warns and drops the remainder. A torn tail alone
// still verifies.
func TestVerifyFailsOnCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	w := testWriter(t, Options{Dir: dir, Fsync: FsyncNever})
	var locs []Loc
	for i, name := range []string{"first", "second", "third"} {
		loc, err := w.Append(rec(name, KindSnapshot, fmt.Sprint(i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc)
	}
	w.Abort()
	if tallies, err := Verify(dir); err != nil || len(tallies) != 1 || tallies[0].Records != 3 {
		t.Fatalf("intact spool: tallies %+v, err %v; want 3 records, no error", tallies, err)
	}

	data, err := os.ReadFile(locs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-1]
	if err := os.WriteFile(locs[0].Path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if tallies, err := Verify(dir); err != nil || tallies[0].Records != 2 {
		t.Fatalf("torn tail: tallies %+v, err %v; want 2 records, no error", tallies, err)
	}

	data[locs[1].Offset+headerSize+2] ^= 0xFF
	if err := os.WriteFile(locs[0].Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Verify(dir)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt second record: err = %v, want ErrCorrupt", err)
	}
	if want := fmt.Sprintf("offset %d", locs[1].Offset); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %s", err, want)
	}
}

func TestAppendRejectsOversizedRecord(t *testing.T) {
	w := testWriter(t, Options{MaxRecordBytes: 128})
	if _, err := w.Append(rec("big", KindSnapshot, strings.Repeat("x", 256)), nil); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
	// At the limit exactly: accepted.
	payload := strings.Repeat("y", 128-headerSize-len("fit"))
	if _, err := w.Append(rec("fit", KindSnapshot, payload), nil); err != nil {
		t.Errorf("record at the limit rejected: %v", err)
	}
}

func TestCompactRewritesLiveChains(t *testing.T) {
	dir := t.TempDir()
	w := testWriter(t, Options{Dir: dir, SegmentBytes: 200, Fsync: FsyncNever})
	// Many superseded snapshots for two sessions, plus one dead session.
	var last = map[string]Loc{}
	for i := 0; i < 30; i++ {
		name := fmt.Sprintf("s%d", i%3)
		loc, err := w.Append(rec(name, KindSnapshot, fmt.Sprintf("gen%d", i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		last[name] = loc
	}
	before := w.Stats()
	if before.Segments < 3 {
		t.Fatalf("Segments = %d, want several", before.Segments)
	}

	// Keep only s0 and s1's latest records.
	live := []string{"s0", "s1"}
	newLocs := map[string]Loc{}
	err := w.Compact(func(app func(Record) (Loc, error)) error {
		for _, name := range live {
			r, err := ReadRecord(last[name], 0)
			if err != nil {
				return err
			}
			loc, err := app(r)
			if err != nil {
				return err
			}
			newLocs[name] = loc
		}
		return nil
	}, nil)
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := w.Stats()
	if after.Bytes >= before.Bytes {
		t.Errorf("Bytes = %d after compaction, want < %d", after.Bytes, before.Bytes)
	}
	for _, name := range live {
		r, err := ReadRecord(newLocs[name], 0)
		if err != nil {
			t.Fatalf("ReadRecord(%s) after compact: %v", name, err)
		}
		if r.Name != name {
			t.Errorf("record %s: name %q", name, r.Name)
		}
	}
	// Old locations are gone.
	if _, err := ReadRecord(last["s2"], 0); err == nil {
		t.Error("dead session still readable at its old location")
	}
	// The writer continues appending normally after compaction.
	if _, err := w.Append(rec("s0", KindDelta, "post-compact"), nil); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := ScanDir(dir, 0, nil, func(Loc, Record) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("records after compact+append = %d, want 3", count)
	}
}

func TestCompactRetainsVetoedSegments(t *testing.T) {
	dir := t.TempDir()
	w := testWriter(t, Options{Dir: dir, SegmentBytes: 200, Fsync: FsyncNever})
	var locs []Loc
	for i := 0; i < 12; i++ {
		loc, err := w.Append(rec(fmt.Sprintf("s%d", i), KindSnapshot, "x"), nil)
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc)
	}
	// Veto the first record's segment: a foreign chain still points there.
	kept := locs[0].Path
	err := w.Compact(func(func(Record) (Loc, error)) error { return nil },
		func(path string) bool { return path == kept })
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if _, err := ReadRecord(locs[0], 0); err != nil {
		t.Errorf("retained segment unreadable: %v", err)
	}
	for _, loc := range locs {
		if loc.Path == kept {
			continue
		}
		if _, err := ReadRecord(loc, 0); err == nil {
			t.Fatalf("record in %s survived compaction without a veto", loc.Path)
		}
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, s := range []string{"", "always", "commit", "never"} {
		if _, err := ParseFsyncPolicy(s); err != nil {
			t.Errorf("ParseFsyncPolicy(%q): %v", s, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestAbortDropsPendingCallbacks(t *testing.T) {
	w := testWriter(t, Options{})
	ran := false
	if _, err := w.Append(rec("s", KindDelta, "d"), func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if ran {
		t.Error("callback ran despite Abort")
	}
	if _, err := w.Append(rec("s", KindDelta, "d"), nil); err == nil {
		t.Error("append after Abort succeeded")
	}
}
