// Package spool is the write-ahead store that lets one host node carry
// millions of sessions: a hibernating session serializes its proxy state
// into an append-only, CRC-checksummed segment file, and the in-memory
// session shrinks to a directory entry pointing at the record. The design
// follows the classic segmented-log shape (cf. MigratoryData's
// persistent-store split in PAPERS.md): fixed-header records appended to
// numbered segments, group commit amortizing fsync, and compaction that
// rewrites live records into fresh segments so reclaimed space is bounded
// by segment granularity.
//
// Durability contract: Append issues the write(2) before returning, so a
// SIGKILL of the process never loses an appended record (the page cache
// survives the process); only a machine crash can lose writes since the
// last fsync, which the FsyncPolicy bounds. Readers tolerate a torn tail —
// a record cut short by a crash mid-append — by treating the first
// undecodable byte of a segment as that segment's end.
package spool

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lasthop/internal/flight"
)

// Kind tags what a record holds.
type Kind uint8

const (
	// KindSnapshot is a full proxy snapshot for one session.
	KindSnapshot Kind = 1
	// KindDelta is an incremental change (one notification or rank
	// update) appended after a session's latest snapshot.
	KindDelta Kind = 2
	// KindTombstone marks a session as deleted; compaction drops its
	// chain.
	KindTombstone Kind = 3
)

func (k Kind) valid() bool { return k >= KindSnapshot && k <= KindTombstone }

// String names the kind for the inspection tooling.
func (k Kind) String() string {
	switch k {
	case KindSnapshot:
		return "snapshot"
	case KindDelta:
		return "delta"
	case KindTombstone:
		return "tombstone"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record is one spool entry: a session name, a small metadata blob, and
// the payload (the serialized snapshot or delta).
type Record struct {
	Kind    Kind
	Name    string
	Meta    []byte
	Payload []byte
	// At orders records of one session across segments (snapshots
	// supersede older ones; deltas replay in At order). The writer stamps
	// it if zero.
	At time.Time
}

// Loc addresses one record: the full segment path plus the byte offset of
// its header. Carrying the full path keeps directory entries valid even
// when a restart re-shards sessions onto different workers (and thus
// different spool directories).
type Loc struct {
	Path   string `json:"path"`
	Offset int64  `json:"offset"`
}

// IsZero reports whether the Loc addresses nothing.
func (l Loc) IsZero() bool { return l.Path == "" }

// Record layout: a fixed 28-byte header followed by name, meta, payload.
//
//	[0:4)   magic "LHSP"
//	[4]     version
//	[5]     kind
//	[6:8)   name length   (uint16 LE)
//	[8:12)  meta length   (uint32 LE)
//	[12:16) payload length (uint32 LE)
//	[16:24) At            (int64 LE, UnixNano)
//	[24:28) CRC32-C over header[4:24] + name + meta + payload
const (
	headerSize = 28
	version    = 1
)

var magic = [4]byte{'L', 'H', 'S', 'P'}

// DefaultMaxRecordBytes bounds a single record (header + body). Snapshots
// beyond it indicate a runaway history; the writer refuses them rather
// than letting one session dominate a segment.
const DefaultMaxRecordBytes = 16 << 20

// DefaultSegmentBytes is the roll threshold for the active segment.
const DefaultSegmentBytes = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a record that failed its checksum or structural checks.
// A torn tail (clean EOF mid-record) is reported as ErrTorn instead.
var ErrCorrupt = errors.New("spool: corrupt record")

// ErrTorn marks a record cut short by a crash mid-append: the segment ends
// before the record does.
var ErrTorn = errors.New("spool: torn record")

// ErrTooLarge marks a record exceeding the configured maximum.
var ErrTooLarge = errors.New("spool: record too large")

// AppendRecord encodes r onto buf and returns the extended slice. Exposed
// (with DecodeRecord) so the fuzz harness can round-trip the wire format
// without a Writer.
func AppendRecord(buf []byte, r Record) ([]byte, error) {
	if !r.Kind.valid() {
		return buf, fmt.Errorf("spool: invalid kind %d", r.Kind)
	}
	if len(r.Name) > int(^uint16(0)) {
		return buf, fmt.Errorf("spool: name of %d bytes exceeds the uint16 field", len(r.Name))
	}
	var hdr [headerSize]byte
	copy(hdr[0:4], magic[:])
	hdr[4] = version
	hdr[5] = byte(r.Kind)
	binary.LittleEndian.PutUint16(hdr[6:8], uint16(len(r.Name)))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(r.Meta)))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(r.Payload)))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(r.At.UnixNano()))
	crc := crc32.Update(0, castagnoli, hdr[4:24])
	crc = crc32.Update(crc, castagnoli, []byte(r.Name))
	crc = crc32.Update(crc, castagnoli, r.Meta)
	crc = crc32.Update(crc, castagnoli, r.Payload)
	binary.LittleEndian.PutUint32(hdr[24:28], crc)
	buf = append(buf, hdr[:]...)
	buf = append(buf, r.Name...)
	buf = append(buf, r.Meta...)
	buf = append(buf, r.Payload...)
	return buf, nil
}

// DecodeRecord decodes one record from the head of b, bounded by
// maxRecord (0 means DefaultMaxRecordBytes). It returns the record and
// the encoded size. A short buffer returns ErrTorn (the caller cannot
// distinguish a torn tail from a partial read); structural or checksum
// failure returns an error wrapping ErrCorrupt.
func DecodeRecord(b []byte, maxRecord int) (Record, int, error) {
	if maxRecord <= 0 {
		maxRecord = DefaultMaxRecordBytes
	}
	if len(b) < headerSize {
		return Record{}, 0, ErrTorn
	}
	if [4]byte(b[0:4]) != magic {
		return Record{}, 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[0:4])
	}
	if b[4] != version {
		return Record{}, 0, fmt.Errorf("%w: version %d, want %d", ErrCorrupt, b[4], version)
	}
	kind := Kind(b[5])
	if !kind.valid() {
		return Record{}, 0, fmt.Errorf("%w: kind %d", ErrCorrupt, b[5])
	}
	nameLen := int(binary.LittleEndian.Uint16(b[6:8]))
	metaLen := int(binary.LittleEndian.Uint32(b[8:12]))
	payloadLen := int(binary.LittleEndian.Uint32(b[12:16]))
	total := headerSize + nameLen + metaLen + payloadLen
	if total > maxRecord || total < headerSize { // < catches int overflow
		return Record{}, 0, fmt.Errorf("%w: %d bytes (max %d)", ErrTooLarge, total, maxRecord)
	}
	if len(b) < total {
		return Record{}, 0, ErrTorn
	}
	crc := crc32.Update(0, castagnoli, b[4:24])
	crc = crc32.Update(crc, castagnoli, b[headerSize:total])
	if got := binary.LittleEndian.Uint32(b[24:28]); got != crc {
		return Record{}, 0, fmt.Errorf("%w: checksum %08x, want %08x", ErrCorrupt, got, crc)
	}
	body := b[headerSize:total]
	r := Record{
		Kind: kind,
		Name: string(body[:nameLen]),
		At:   time.Unix(0, int64(binary.LittleEndian.Uint64(b[16:24]))),
	}
	if metaLen > 0 {
		r.Meta = append([]byte(nil), body[nameLen:nameLen+metaLen]...)
	}
	if payloadLen > 0 {
		r.Payload = append([]byte(nil), body[nameLen+metaLen:]...)
	}
	return r, total, nil
}

// FsyncPolicy selects when the writer calls fsync.
type FsyncPolicy string

const (
	// FsyncAlways syncs after every append. Survives machine crashes at
	// the cost of one fsync per hibernation.
	FsyncAlways FsyncPolicy = "always"
	// FsyncCommit syncs once per group commit (the worker's timing-wheel
	// tick). The default: a machine crash loses at most one commit
	// interval; a process SIGKILL loses nothing.
	FsyncCommit FsyncPolicy = "commit"
	// FsyncNever never syncs; the page cache is the only durability.
	// Still SIGKILL-safe, for tests and benchmarks.
	FsyncNever FsyncPolicy = "never"
)

// ParseFsyncPolicy validates a policy string, defaulting empty to
// FsyncCommit.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case "":
		return FsyncCommit, nil
	case FsyncAlways, FsyncCommit, FsyncNever:
		return FsyncPolicy(s), nil
	}
	return "", fmt.Errorf("spool: unknown fsync policy %q (want always, commit, or never)", s)
}

// Options configures a Writer.
type Options struct {
	// Dir is the spool directory; created if absent.
	Dir string
	// SegmentBytes rolls the active segment once it reaches this size.
	// Zero means DefaultSegmentBytes.
	SegmentBytes int64
	// MaxRecordBytes bounds one record. Zero means DefaultMaxRecordBytes.
	MaxRecordBytes int
	// Fsync selects the sync policy; empty means FsyncCommit.
	Fsync FsyncPolicy
	// Logf receives warnings (torn tails, skipped segments). Nil
	// discards.
	Logf func(format string, args ...any)
	// Tag labels this writer's flight events (the host passes the
	// worker id); writers outside a sharded owner leave it zero.
	Tag int32
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = DefaultMaxRecordBytes
	}
	if o.Fsync == "" {
		o.Fsync = FsyncCommit
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Writer appends records to segmented files with group commit. One Writer
// owns one directory; the host gives each worker its own so appends never
// contend across workers. Methods are safe for concurrent use (metrics
// sample Stats from outside the worker's wheel).
type Writer struct {
	opts Options

	mu      sync.Mutex
	f       *os.File
	path    string
	index   int
	offset  int64
	buf     []byte
	pending []func()
	// sealed are the sizes of closed segments this writer knows about,
	// for Stats.
	sealedBytes int64
	sealedCount int
	appends     int64
	closed      bool

	// Stall telemetry, read by the watchdog probe while mu may be held
	// by a wedged fsync — atomics only, never mu. oldestPendingNs is
	// when the oldest uncommitted onCommit callback was appended (0 =
	// none pending); syncLat is a ring of recent fsync latencies.
	oldestPendingNs atomic.Int64
	syncIdx         atomic.Uint64
	syncLat         [64]atomic.Int64
}

// SegmentPath names segment i in dir.
func SegmentPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d.spool", i))
}

// segmentIndex parses a segment filename, returning ok=false for other
// files.
func segmentIndex(name string) (int, bool) {
	var i int
	if n, err := fmt.Sscanf(name, "seg-%d.spool", &i); n != 1 || err != nil {
		return 0, false
	}
	return i, true
}

// ListSegments returns the segment paths in dir, oldest first. A missing
// directory yields an empty list.
func ListSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("spool: list %s: %w", dir, err)
	}
	type seg struct {
		index int
		path  string
	}
	var segs []seg
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if i, ok := segmentIndex(e.Name()); ok {
			segs = append(segs, seg{i, filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	out := make([]string, len(segs))
	for i, s := range segs {
		out[i] = s.path
	}
	return out, nil
}

// Open creates (or reopens) a spool directory and starts a fresh active
// segment after any existing ones. Existing segments are never appended
// to — a reopened spool treats them as sealed history for Scan and
// compaction — so a torn tail from a previous crash can never be buried
// under fresh records.
func Open(opts Options) (*Writer, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("spool: empty dir")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("spool: %w", err)
	}
	segs, err := ListSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	next := 1
	var sealedBytes int64
	for _, p := range segs {
		if i, ok := segmentIndex(filepath.Base(p)); ok && i >= next {
			next = i + 1
		}
		if fi, err := os.Stat(p); err == nil {
			sealedBytes += fi.Size()
		}
	}
	w := &Writer{opts: opts, index: next, sealedBytes: sealedBytes, sealedCount: len(segs)}
	if err := w.openSegment(next); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *Writer) openSegment(i int) error {
	path := SegmentPath(w.opts.Dir, i)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("spool: %w", err)
	}
	w.f, w.path, w.index, w.offset = f, path, i, 0
	return nil
}

// Dir returns the spool directory.
func (w *Writer) Dir() string { return w.opts.Dir }

// MaxRecordBytes returns the configured record bound.
func (w *Writer) MaxRecordBytes() int { return w.opts.MaxRecordBytes }

// Append encodes the record, issues the write(2), and returns its
// location. The record is process-crash-durable on return; onCommit (if
// non-nil) runs after the next Commit, when it is also machine-crash
// durable under FsyncCommit/FsyncAlways. The caller must not drop its
// in-memory copy of the state before onCommit runs.
func (w *Writer) Append(r Record, onCommit func()) (Loc, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return Loc{}, errors.New("spool: writer closed")
	}
	if r.At.IsZero() {
		r.At = time.Now()
	}
	w.buf = w.buf[:0]
	buf, err := AppendRecord(w.buf, r)
	if err != nil {
		return Loc{}, err
	}
	w.buf = buf
	if len(buf) > w.opts.MaxRecordBytes {
		return Loc{}, fmt.Errorf("%w: %d bytes (max %d)", ErrTooLarge, len(buf), w.opts.MaxRecordBytes)
	}
	loc := Loc{Path: w.path, Offset: w.offset}
	start := time.Now()
	if _, err := w.f.Write(buf); err != nil {
		return Loc{}, fmt.Errorf("spool: append: %w", err)
	}
	w.offset += int64(len(buf))
	w.appends++
	if onCommit != nil {
		if len(w.pending) == 0 {
			w.oldestPendingNs.Store(time.Now().UnixNano())
		}
		w.pending = append(w.pending, onCommit)
	}
	if w.opts.Fsync == FsyncAlways {
		if err := w.timedSync(); err != nil {
			return Loc{}, fmt.Errorf("spool: sync: %w", err)
		}
	}
	flight.Record(flight.SubSpool, flight.KindAppend, w.opts.Tag, int64(time.Since(start)), int64(len(buf)))
	if w.offset >= w.opts.SegmentBytes {
		if err := w.rollLocked(); err != nil {
			return loc, err
		}
	}
	return loc, nil
}

// rollLocked seals the active segment and opens the next one.
func (w *Writer) rollLocked() error {
	if w.opts.Fsync != FsyncNever {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("spool: sync on roll: %w", err)
		}
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("spool: close on roll: %w", err)
	}
	w.sealedBytes += w.offset
	w.sealedCount++
	return w.openSegment(w.index + 1)
}

// Commit makes everything appended so far machine-crash durable (per the
// fsync policy) and runs the deferred onCommit callbacks. The host calls
// it from each worker's timing-wheel tick — the group commit.
func (w *Writer) Commit() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return errors.New("spool: writer closed")
	}
	var err error
	if w.opts.Fsync == FsyncCommit {
		err = w.timedSync()
	}
	pending := w.pending
	w.pending = nil
	w.oldestPendingNs.Store(0)
	w.mu.Unlock()
	if err != nil {
		return fmt.Errorf("spool: commit: %w", err)
	}
	// Callbacks run outside the lock: they take host-side locks (session
	// state) that must not nest inside the writer's.
	for _, fn := range pending {
		fn()
	}
	return nil
}

// Close commits and closes the writer.
func (w *Writer) Close() error {
	if err := w.Commit(); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	if w.opts.Fsync != FsyncNever {
		if err := w.f.Sync(); err != nil {
			w.f.Close()
			return fmt.Errorf("spool: close: %w", err)
		}
	}
	return w.f.Close()
}

// Abort closes the file descriptor without syncing and drops pending
// callbacks — the crash-simulation path (Kill) and the error path.
func (w *Writer) Abort() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	w.pending = nil
	w.oldestPendingNs.Store(0)
	w.f.Close()
}

// timedSync fsyncs the active segment, recording the latency into the
// stall-telemetry ring and the flight recorder. Callers hold mu.
func (w *Writer) timedSync() error {
	start := time.Now()
	err := w.f.Sync()
	lat := int64(time.Since(start))
	i := w.syncIdx.Add(1) - 1
	w.syncLat[i%uint64(len(w.syncLat))].Store(lat)
	flight.Record(flight.SubSpool, flight.KindFsync, w.opts.Tag, lat, int64(len(w.pending)))
	return err
}

// FsyncP99 returns the 99th percentile of the writer's recent fsync
// latencies (up to the last 64), or zero before the first sync.
func (w *Writer) FsyncP99() time.Duration {
	n := w.syncIdx.Load()
	if n > uint64(len(w.syncLat)) {
		n = uint64(len(w.syncLat))
	}
	if n == 0 {
		return 0
	}
	lats := make([]int64, 0, n)
	for i := uint64(0); i < n; i++ {
		if v := w.syncLat[i].Load(); v > 0 {
			lats = append(lats, v)
		}
	}
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return time.Duration(lats[len(lats)*99/100])
}

// StallProbe returns a watchdog probe over this writer. It trips when a
// deferred onCommit callback has been waiting longer than maxPending —
// the group commit stopped draining, by wedged fsync or dead commit
// tick — or, when maxFsyncP99 > 0, when recent fsync latency p99 drifts
// past it. The probe reads only atomics, so it stays responsive while
// the writer itself is stuck inside a syscall holding its lock.
func (w *Writer) StallProbe(name string, maxPending, maxFsyncP99 time.Duration) flight.Probe {
	return flight.Probe{Name: name, Component: flight.SubSpool.String(), Check: func() error {
		if at := w.oldestPendingNs.Load(); at != 0 {
			if age := time.Since(time.Unix(0, at)); age > maxPending {
				return fmt.Errorf("group commit pending for %v (max %v)", age.Round(time.Millisecond), maxPending)
			}
		}
		if maxFsyncP99 > 0 {
			if p99 := w.FsyncP99(); p99 > maxFsyncP99 {
				return fmt.Errorf("fsync p99 %v (max %v)", p99.Round(time.Microsecond), maxFsyncP99)
			}
		}
		return nil
	}}
}

// WriterStats is a point-in-time size report for metrics.
type WriterStats struct {
	// Segments counts segment files, including the active one.
	Segments int
	// Bytes is the total spool size on disk.
	Bytes int64
	// Appends counts records appended over the writer's lifetime.
	Appends int64
}

// Stats samples the writer's sizes.
func (w *Writer) Stats() WriterStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WriterStats{
		Segments: w.sealedCount + 1,
		Bytes:    w.sealedBytes + w.offset,
		Appends:  w.appends,
	}
}

// ReadRecord reads the record at loc. maxRecord of 0 means
// DefaultMaxRecordBytes. It verifies the checksum, so a flipped bit in a
// hibernated session surfaces as ErrCorrupt instead of a scrambled
// rehydration.
func ReadRecord(loc Loc, maxRecord int) (Record, error) {
	if maxRecord <= 0 {
		maxRecord = DefaultMaxRecordBytes
	}
	f, err := os.Open(loc.Path)
	if err != nil {
		return Record{}, fmt.Errorf("spool: %w", err)
	}
	defer f.Close()
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], loc.Offset); err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, ErrTorn
		}
		return Record{}, fmt.Errorf("spool: read header: %w", err)
	}
	// Decode the header alone first (DecodeRecord on a bare header
	// returns ErrTorn only when structure checks pass), then the body.
	_, _, derr := DecodeRecord(hdr[:], maxRecord)
	if derr != nil && !errors.Is(derr, ErrTorn) {
		return Record{}, derr
	}
	nameLen := int(binary.LittleEndian.Uint16(hdr[6:8]))
	metaLen := int(binary.LittleEndian.Uint32(hdr[8:12]))
	payloadLen := int(binary.LittleEndian.Uint32(hdr[12:16]))
	total := headerSize + nameLen + metaLen + payloadLen
	buf := make([]byte, total)
	copy(buf, hdr[:])
	if _, err := io.ReadFull(io.NewSectionReader(f, loc.Offset+headerSize, int64(total-headerSize)), buf[headerSize:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return Record{}, ErrTorn
		}
		return Record{}, fmt.Errorf("spool: read body: %w", err)
	}
	r, _, err := DecodeRecord(buf, maxRecord)
	return r, err
}

// ScanSegment streams the records of one segment in file order. A torn
// tail ends the scan cleanly; any other decode failure stops the scan and
// warns — the remainder of the segment is unreachable (record boundaries
// are gone) but other segments are unaffected, which is exactly the
// crash-recovery tolerance the host needs. fn returning an error aborts
// the scan with that error.
func ScanSegment(path string, maxRecord int, logf func(string, ...any), fn func(Loc, Record) error) error {
	if maxRecord <= 0 {
		maxRecord = DefaultMaxRecordBytes
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("spool: %w", err)
	}
	offset := int64(0)
	for int(offset) < len(data) {
		r, n, err := DecodeRecord(data[offset:], maxRecord)
		if errors.Is(err, ErrTorn) {
			logf("spool: %s: torn record at offset %d (%d trailing bytes); treating as end of segment",
				path, offset, int64(len(data))-offset)
			return nil
		}
		if err != nil {
			logf("spool: %s: corrupt record at offset %d: %v; skipping the remainder of the segment",
				path, offset, err)
			return nil
		}
		if err := fn(Loc{Path: path, Offset: offset}, r); err != nil {
			return err
		}
		offset += int64(n)
	}
	return nil
}

// ScanDir streams every record of every segment in dir, oldest segment
// first, with ScanSegment's per-segment corruption tolerance.
func ScanDir(dir string, maxRecord int, logf func(string, ...any), fn func(Loc, Record) error) error {
	segs, err := ListSegments(dir)
	if err != nil {
		return err
	}
	for _, path := range segs {
		if err := ScanSegment(path, maxRecord, logf, fn); err != nil {
			return err
		}
	}
	return nil
}

// Compact rewrites the live records into fresh segments and deletes this
// directory's old ones. emit receives an append function and must write
// every record that is still live (typically: each session's latest
// snapshot followed by its surviving deltas); the locations it returns
// replace the caller's directory entries. The new segments are synced
// before any old segment is deleted, so a crash anywhere during
// compaction leaves at worst duplicate records — resolved on recovery by
// latest-At — never missing ones. Old segments from other directories
// (a session whose chain still points into a previous worker's dir) are
// untouched.
//
// retain, when non-nil, vetoes individual deletions: a segment whose path
// it reports true for is kept even though emit did not rewrite its
// contents. Callers use it for segments still referenced by chains they
// do not own — e.g. sessions sharded onto a different worker after a
// restart whose records landed in this directory.
func (w *Writer) Compact(emit func(append func(Record) (Loc, error)) error, retain func(path string) bool) error {
	compactStart := time.Now()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return errors.New("spool: writer closed")
	}
	// Seal the active segment and list everything currently on disk in
	// this dir; those are the segments compaction replaces.
	old, err := ListSegments(w.opts.Dir)
	if err != nil {
		w.mu.Unlock()
		return err
	}
	if err := w.rollLocked(); err != nil {
		w.mu.Unlock()
		return err
	}
	// The freshly opened segment is not in old (ListSegments ran before
	// the roll); everything emit appends lands there or later.
	w.mu.Unlock()

	if err := emit(func(r Record) (Loc, error) { return w.Append(r, nil) }); err != nil {
		return fmt.Errorf("spool: compact: %w", err)
	}
	// Make the rewritten records durable before dropping the originals.
	w.mu.Lock()
	if w.opts.Fsync != FsyncNever {
		if err := w.f.Sync(); err != nil {
			w.mu.Unlock()
			return fmt.Errorf("spool: compact sync: %w", err)
		}
	}
	var removedBytes int64
	removed := 0
	for _, p := range old {
		if retain != nil && retain(p) {
			continue
		}
		var size int64
		if fi, err := os.Stat(p); err == nil {
			size = fi.Size()
		}
		if err := os.Remove(p); err != nil {
			w.opts.Logf("spool: compact: remove %s: %v", p, err)
			continue
		}
		removedBytes += size
		removed++
	}
	w.sealedBytes -= removedBytes
	w.sealedCount -= removed
	if w.sealedBytes < 0 {
		w.sealedBytes = 0
	}
	if w.sealedCount < 0 {
		w.sealedCount = 0
	}
	segments := w.sealedCount + 1
	w.mu.Unlock()
	flight.Record(flight.SubSpool, flight.KindCompact, w.opts.Tag,
		int64(time.Since(compactStart)), int64(segments))
	return nil
}

// SegmentDirs resolves a spool root to the directories holding its
// segments: dir itself when it holds segments directly, otherwise its
// worker-* subdirectories (the multi-tenant host's layout).
func SegmentDirs(dir string) ([]string, error) {
	if segs, err := ListSegments(dir); err == nil && len(segs) > 0 {
		return []string{dir}, nil
	}
	subs, err := filepath.Glob(filepath.Join(dir, "worker-*"))
	if err != nil {
		return nil, err
	}
	sort.Strings(subs)
	if len(subs) == 0 {
		return nil, fmt.Errorf("spool: no segments or worker-* directories under %s", dir)
	}
	return subs, nil
}

// SegmentTally counts what Verify read from one segment.
type SegmentTally struct {
	Path    string
	Records int
}

// Verify re-reads every record of every segment under the spool root
// dir (see SegmentDirs), re-checking each record's structure and
// checksum. It returns the tallies of the segments read and, on the
// first record that fails, an error naming its segment and offset:
// unlike ScanSegment, which skips a corrupt segment's remainder so a
// recovering host keeps what it can, Verify treats any corruption as a
// failure. A torn tail, the final record cut short by a crash
// mid-append, is tolerated exactly as recovery tolerates it.
func Verify(dir string) ([]SegmentTally, error) {
	dirs, err := SegmentDirs(dir)
	if err != nil {
		return nil, err
	}
	var tallies []SegmentTally
	for _, d := range dirs {
		segs, err := ListSegments(d)
		if err != nil {
			return tallies, err
		}
		for _, path := range segs {
			t, err := verifySegment(path)
			tallies = append(tallies, t)
			if err != nil {
				return tallies, err
			}
		}
	}
	return tallies, nil
}

func verifySegment(path string) (SegmentTally, error) {
	t := SegmentTally{Path: path}
	data, err := os.ReadFile(path)
	if err != nil {
		return t, fmt.Errorf("spool: %w", err)
	}
	for offset := 0; offset < len(data); {
		_, n, err := DecodeRecord(data[offset:], 0)
		if errors.Is(err, ErrTorn) {
			break
		}
		if err != nil {
			return t, fmt.Errorf("%s: record at offset %d: %w", path, offset, err)
		}
		t.Records++
		offset += n
	}
	return t, nil
}
