// Package durable is the crash-safe persistence layer under the serving
// registry: an append-only, CRC-framed write-ahead log plus snapshot store.
// It journals opaque per-entity records (dataset registrations, clean-session
// events) and rebuilds the exact record stream after a process restart —
// including a restart caused by a crash mid-write, where the torn final
// record is detected by its checksum and cleanly truncated instead of
// poisoning startup.
//
// The package is deliberately schema-free: a Record is (entity id, type,
// JSON payload) and the owner decides what the payloads mean and how to fold
// them into state. That keeps the interface node-agnostic — the same
// entity-id → record-stream contract works whether one process owns every
// entity or a sharded deployment hands entity streams between nodes.
//
// # On-disk layout
//
// A store directory holds numbered WAL segments and at most one live
// snapshot:
//
//	wal-00000001.log    CRC-framed records, oldest surviving segment
//	wal-00000002.log    ... the highest-numbered segment is the active one
//	snap-00000001.snap  state as of the end of segment 1 (owner-defined bytes)
//
// Every segment starts with an 8-byte magic header; each record is framed as
//
//	[4-byte little-endian payload length][4-byte CRC-32C of payload][payload]
//
// Snapshot files carry their own magic, length, and CRC, and are written to
// a temp file and renamed into place, so a crash mid-snapshot leaves the
// previous snapshot (or none) intact.
//
// # Durability model
//
// Append buffers the record and returns; a background flusher fsyncs the
// active segment every SyncInterval, so many appends share one fsync (group
// commit). AppendSync additionally blocks until the record's bytes are on
// disk — use it for acknowledgements the client must be able to rely on
// across a crash. Records lost in the un-synced window are exactly the
// freshest tail; an owner whose replay is deterministic (CPClean's is)
// re-executes that tail identically, so batching costs a bounded amount of
// redone work, never correctness.
//
// # Recovery
//
// Open loads the newest intact snapshot (a corrupt one falls back to its
// predecessor), then replays every later segment in order. A record that
// fails its CRC — a torn write from a crash mid-append or mid-fsync — ends
// replay of that segment: if it is the active (final) segment the file is
// truncated back to the last good record and appends continue from there;
// a corrupt interior segment is reported via Logf and the rest of that
// segment skipped. Open never fails because of a torn tail.
package durable

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Record is one journaled event of one entity.
type Record struct {
	// Entity identifies whose stream this record belongs to, e.g.
	// "dataset/iris" or "session/cs_0a1b...". Replay preserves the global
	// append order, which also orders every entity's stream.
	Entity string `json:"entity"`
	// Type names the event within the entity's stream ("register", "step",
	// "release", ...). The store does not interpret it.
	Type string `json:"type"`
	// Data is the owner-defined payload.
	Data json.RawMessage `json:"data,omitempty"`
}

// Options tunes a store.
type Options struct {
	// SyncInterval is the group-commit window: the flusher fsyncs the active
	// segment this often while appends are outstanding. 0 = DefaultSyncInterval;
	// negative = fsync synchronously on every append (no batching).
	SyncInterval time.Duration
	// Logf receives recovery warnings (torn tails, skipped segments) and
	// background-maintenance errors. Defaults to log.Printf.
	Logf func(format string, args ...interface{})
}

const (
	// DefaultSyncInterval is the default group-commit fsync window.
	DefaultSyncInterval = 5 * time.Millisecond

	segMagic  = "CPWALv1\n"
	snapMagic = "CPSNAP1\n"

	frameHeaderLen = 8 // 4-byte length + 4-byte CRC-32C

	// maxRecordBytes guards replay against allocating for a garbage length
	// field that happens to pass no other sanity check.
	maxRecordBytes = 256 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed marks operations on a closed store.
var ErrClosed = errors.New("durable: store is closed")

// Store is an open WAL+snapshot directory. Append/AppendSync/Sync/Compact
// are safe for concurrent use; the store assumes it is the directory's only
// writer (run one process per data directory).
type Store struct {
	dir  string
	opts Options

	snapshot []byte   // newest intact snapshot payload, nil if none
	records  []Record // records after the snapshot, in append order

	mu        sync.Mutex
	cond      *sync.Cond // signals syncedSeq advancing
	f         *os.File   // active segment
	w         *bufio.Writer
	activeSeq int    // active segment number
	activeLen int64  // bytes written to the active segment (incl. header)
	appendSeq uint64 // records appended since open
	syncedSeq uint64 // records known durable
	syncErr   error  // sticky: a failed fsync poisons the store
	closed    bool

	// Cursor/ordinal bookkeeping for WAL shipping (see cursor.go). All of it
	// is mutated under mu once the store is open; Open and startSegment write
	// it before the store is shared.
	activeStart int64         // global ordinal of the active segment's first record
	activeRecs  int64         // records written to the active segment
	syncedLen   int64         // bytes of the active segment known durable
	syncedRecs  int64         // records of the active segment known durable
	sealedStart map[int]int64 // first global ordinal per sealed on-disk segment
	sealedRecs  map[int]int64 // record count per sealed on-disk segment
	syncedCh    chan struct{} // closed and replaced whenever the durable frontier moves

	// Observability counters (guarded by mu; see Metrics).
	fsyncCount    int64
	fsyncTotal    time.Duration
	fsyncLast     time.Duration
	snapsWritten  int64
	replayDur     time.Duration
	replayRecords int64

	flusherStop chan struct{}
	flusherDone chan struct{}
}

// Open opens (creating if needed) the store directory, recovers the newest
// intact snapshot plus every record appended after it, truncates any torn
// tail left by a crash, and readies the highest-numbered segment for
// appends. The recovered state is exposed via Snapshot and Records.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SyncInterval == 0 {
		opts.SyncInterval = DefaultSyncInterval
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	st := &Store{
		dir:         dir,
		opts:        opts,
		sealedStart: make(map[int]int64),
		sealedRecs:  make(map[int]int64),
	}
	st.cond = sync.NewCond(&st.mu)
	replayStart := time.Now() //cpvet:allow nowalltime -- replay-duration metric only, never persisted

	segs, snaps, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	segSet := make(map[int]bool, len(segs))
	for _, q := range segs {
		segSet[q] = true
	}
	hasRange := func(lo, hi int) bool {
		for q := lo; q <= hi; q++ {
			if !segSet[q] {
				return false
			}
		}
		return true
	}
	// Pick the newest readable snapshot. An unreadable snapshot is only
	// skippable when the segments it condensed still exist (Compact failed
	// before deleting them) — otherwise skipping it would silently discard
	// every record it held, so starting up at all would be data loss dressed
	// as success. Refuse instead and let the operator restore the file, or
	// delete it to explicitly accept the loss.
	snapSeq := 0
	for i := len(snaps) - 1; i >= 0; i-- {
		seq := snaps[i]
		b, err := readSnapshot(filepath.Join(dir, snapName(seq)))
		if err == nil {
			st.snapshot = b
			snapSeq = seq
			break
		}
		prev := 0
		if i > 0 {
			prev = snaps[i-1]
		}
		if !hasRange(prev+1, seq) {
			return nil, fmt.Errorf(
				"durable: snapshot %s is unreadable (%v) and the segments it condensed are gone; refusing to start with silent data loss — restore the file, or delete it to accept the loss",
				snapName(seq), err)
		}
		opts.Logf("durable: snapshot %s unreadable (%v); its segments survive, recovering from them instead", snapName(seq), err)
	}
	// The segments to replay must be gapless: a missing middle segment means
	// records vanished outside any journaled path. When a snapshot was
	// chosen, segment snapSeq+1 must exist too — Compact creates it before
	// writing the snapshot, so its absence is equally a loss. (With no
	// usable snapshot the first surviving segment is accepted as-is: that is
	// the operator's explicit delete-to-accept-loss path.)
	prev := -1
	for _, seq := range segs {
		if seq <= snapSeq {
			continue
		}
		switch {
		case prev == -1 && st.snapshot != nil && seq != snapSeq+1:
			return nil, fmt.Errorf("durable: %s chosen but %s is missing; refusing to replay around missing records", snapName(snapSeq), segName(snapSeq+1))
		case prev != -1 && seq != prev+1:
			return nil, fmt.Errorf("durable: WAL segment gap: %s is followed by %s; refusing to replay around missing records", segName(prev), segName(seq))
		}
		prev = seq
	}
	// Global record ordinals (1-based, counted from the first record after
	// the snapshot) let a shipping cursor report exact replication lag.
	ord := int64(1)
	for _, seq := range segs {
		if seq <= snapSeq {
			// Fully covered by the snapshot; normally deleted by Compact, but a
			// crash between snapshot write and segment deletion leaves them.
			continue
		}
		final := seq == segs[len(segs)-1]
		frames, err := st.replaySegment(seq, final)
		if err != nil {
			return nil, err
		}
		if final && st.f != nil && st.activeSeq == seq {
			st.activeStart = ord
			st.activeRecs = frames
			st.syncedRecs = frames
			st.syncedLen = st.activeLen
		} else {
			st.sealedStart[seq] = ord
			st.sealedRecs[seq] = frames
		}
		ord += frames
	}

	if len(segs) == 0 || segs[len(segs)-1] <= snapSeq {
		// Nothing to append to: start a fresh segment after the snapshot.
		if err := st.startSegment(snapSeq + 1); err != nil {
			return nil, err
		}
		st.activeStart = ord
	}
	st.replayDur = time.Since(replayStart) //cpvet:allow nowalltime -- replay-duration metric only, never persisted
	st.replayRecords = int64(len(st.records))
	st.flusherStop = make(chan struct{})
	st.flusherDone = make(chan struct{})
	go st.flusher()
	return st, nil
}

// Snapshot returns the newest intact snapshot payload recovered by Open, or
// nil if none was found. The caller must treat it as read-only.
func (st *Store) Snapshot() []byte { return st.snapshot }

// Records returns the records recovered by Open, in append order, starting
// after the state captured by Snapshot. (Overlap is possible when a crash
// interrupted a Compact: apply records idempotently.)
func (st *Store) Records() []Record { return st.records }

// Dir returns the store directory.
func (st *Store) Dir() string { return st.dir }

// ActiveSegmentBytes reports the size of the active segment — the owner's
// rotation/compaction trigger.
func (st *Store) ActiveSegmentBytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.activeLen
}

// Metrics is the store's observability snapshot — what an operator watches
// to see group-commit health (fsync cadence and latency), compaction
// progress (segments and snapshots on disk), and how expensive the last
// restart was (replay duration and record count).
type Metrics struct {
	// FsyncCount counts record fsyncs since open; FsyncTotalMicros and
	// FsyncLastMicros are their cumulative and most recent latency.
	FsyncCount       int64 `json:"fsync_count"`
	FsyncTotalMicros int64 `json:"fsync_total_micros"`
	FsyncLastMicros  int64 `json:"fsync_last_micros"`
	// AppendedRecords / SyncedRecords count records buffered and known
	// durable; the difference is the group-commit window's exposure.
	AppendedRecords uint64 `json:"appended_records"`
	SyncedRecords   uint64 `json:"synced_records"`
	// ActiveSegment is the live segment's sequence number and
	// ActiveSegmentBytes its current size; SegmentCount and SnapshotCount
	// are the files on disk right now (compaction shrinks both).
	ActiveSegment      int   `json:"active_segment"`
	ActiveSegmentBytes int64 `json:"active_segment_bytes"`
	SegmentCount       int   `json:"segment_count"`
	SnapshotCount      int   `json:"snapshot_count"`
	// SnapshotsWritten counts compactions completed since open.
	SnapshotsWritten int64 `json:"snapshots_written"`
	// LastReplayMicros is how long Open spent recovering the directory, and
	// LastReplayRecords how many records it replayed after the snapshot.
	LastReplayMicros  int64 `json:"last_replay_micros"`
	LastReplayRecords int64 `json:"last_replay_records"`
}

// Metrics snapshots the store's counters. It lists the directory to report
// live segment/snapshot counts — cheap, but not free; meant for stats
// endpoints, not hot paths.
func (st *Store) Metrics() Metrics {
	segs, snaps, err := scanDir(st.dir)
	if err != nil {
		segs, snaps = nil, nil // directory unreadable: report counters only
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return Metrics{
		FsyncCount:         st.fsyncCount,
		FsyncTotalMicros:   st.fsyncTotal.Microseconds(),
		FsyncLastMicros:    st.fsyncLast.Microseconds(),
		AppendedRecords:    st.appendSeq,
		SyncedRecords:      st.syncedSeq,
		ActiveSegment:      st.activeSeq,
		ActiveSegmentBytes: st.activeLen,
		SegmentCount:       len(segs),
		SnapshotCount:      len(snaps),
		SnapshotsWritten:   st.snapsWritten,
		LastReplayMicros:   st.replayDur.Microseconds(),
		LastReplayRecords:  st.replayRecords,
	}
}

// scanDir lists segment and snapshot sequence numbers in ascending order.
func scanDir(dir string) (segs, snaps []int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	for _, e := range entries {
		var seq int
		// Sscanf reports a converted %08d even when the literal suffix then
		// fails to match, so round-trip the name to keep strays (leftover
		// temp files, backups) out of the sequence lists.
		if n, _ := fmt.Sscanf(e.Name(), "wal-%08d.log", &seq); n == 1 && segName(seq) == e.Name() {
			segs = append(segs, seq)
		} else if n, _ := fmt.Sscanf(e.Name(), "snap-%08d.snap", &seq); n == 1 && snapName(seq) == e.Name() {
			snaps = append(snaps, seq)
		}
	}
	sort.Ints(segs)
	sort.Ints(snaps)
	return segs, snaps, nil
}

func segName(seq int) string  { return fmt.Sprintf("wal-%08d.log", seq) }
func snapName(seq int) string { return fmt.Sprintf("snap-%08d.snap", seq) }

// replaySegment reads one segment into st.records and returns how many
// intact frames it holds (the segment's record count for cursor ordinals —
// undecodable-but-intact frames included, since they occupy log positions).
// For the final (active) segment a corrupt or torn record truncates the file
// back to the last good offset and the segment stays open for appends; for
// interior segments the remainder is skipped with a warning.
//
//cpvet:allow walframe -- sanctioned helper: the only truncation of a torn tail
func (st *Store) replaySegment(seq int, final bool) (int64, error) {
	path := filepath.Join(st.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, fmt.Errorf("durable: %w", err)
	}
	header := make([]byte, len(segMagic))
	if _, err := io.ReadFull(f, header); err != nil || string(header) != segMagic {
		_ = f.Close() // nothing was written; the skip/recreate path below is the answer
		if !final {
			st.opts.Logf("durable: segment %s has a bad header; skipping it", segName(seq))
			return 0, nil
		}
		// An empty or garbage active segment (crash during creation): recreate.
		st.opts.Logf("durable: active segment %s has a bad header; recreating it", segName(seq))
		return 0, st.startSegment(seq)
	}
	r := bufio.NewReader(f)
	good := int64(len(segMagic)) // end offset of the last intact record
	frames := int64(0)
	for {
		payload, err := ReadFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrCorruptFrame) {
				st.truncateWarn(seq, good, frameErrReason(err))
				break
			}
			_ = f.Close() // the read error is the one worth reporting
			return 0, fmt.Errorf("durable: reading %s: %w", segName(seq), err)
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			// The frame was intact, so this is not a torn write; still, one
			// undecodable record must not take down startup.
			st.opts.Logf("durable: %s: skipping undecodable record at offset %d: %v", segName(seq), good, err)
		} else {
			st.records = append(st.records, rec)
		}
		good += frameHeaderLen + int64(len(payload))
		frames++
	}
	if !final {
		if err := f.Close(); err != nil {
			return 0, fmt.Errorf("durable: closing %s: %w", segName(seq), err)
		}
		return frames, nil
	}
	// Adopt as the active segment: drop anything after the last good record
	// so new appends land on a clean tail.
	if err := f.Truncate(good); err != nil {
		_ = f.Close() // the truncate error is the one worth reporting
		return 0, fmt.Errorf("durable: truncating %s: %w", segName(seq), err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		_ = f.Close() // the seek error is the one worth reporting
		return 0, fmt.Errorf("durable: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // the fsync error is the one worth reporting
		return 0, fmt.Errorf("durable: %w", err)
	}
	st.f = f
	st.w = bufio.NewWriter(f)
	st.activeSeq = seq
	st.activeLen = good
	return frames, nil
}

// frameErrReason renders a ReadFrame failure the way recovery warnings
// traditionally describe torn tails.
func frameErrReason(err error) string {
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return "torn record"
	}
	return err.Error()
}

func (st *Store) truncateWarn(seq int, good int64, why string) {
	st.opts.Logf("durable: %s: %s at offset %d; resuming from the last intact record", segName(seq), why, good)
}

// startSegment creates (truncating any leftover) segment seq and makes it
// active. Caller guarantees no concurrent appends (Open, or Compact under mu).
//
//cpvet:allow walframe -- sanctioned helper: writes only the magic header, then fsyncs
func (st *Store) startSegment(seq int) error {
	f, err := os.OpenFile(filepath.Join(st.dir, segName(seq)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if _, err := f.WriteString(segMagic); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return fmt.Errorf("durable: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // the fsync error is the one worth reporting
		return fmt.Errorf("durable: %w", err)
	}
	if err := syncDir(st.dir); err != nil {
		_ = f.Close() // the directory-fsync error is the one worth reporting
		return err
	}
	st.f = f
	st.w = bufio.NewWriter(f)
	st.activeSeq = seq
	st.activeLen = int64(len(segMagic))
	st.activeRecs = 0
	st.syncedRecs = 0
	st.syncedLen = st.activeLen
	return nil
}

// Append journals one record. It returns once the record is buffered in the
// active segment; durability follows within one SyncInterval (or immediately
// when SyncInterval < 0). Use AppendSync when the caller must not proceed
// until the record is on disk.
func (st *Store) Append(rec Record) error {
	_, err := st.append(rec)
	return err
}

// AppendSync journals one record and blocks until it is fsynced. Concurrent
// AppendSync callers share fsyncs (group commit), so the cost of a burst of
// durable appends is one flush window, not one fsync each.
func (st *Store) AppendSync(rec Record) error {
	wait, err := st.AppendWait(rec)
	if err != nil {
		return err
	}
	return wait()
}

// AppendWait buffers the record like Append and returns a function that
// blocks until it is on disk. This splits the durable append in two so a
// caller can buffer the record while holding its own locks — keeping its
// state mutation and the record's log position atomic with respect to
// snapshots — and pay the fsync wait after releasing them. A non-nil error
// means nothing was appended; an error from wait means the record may not
// be durable (and the store is poisoned — see Append).
func (st *Store) AppendWait(rec Record) (wait func() error, err error) {
	seq, err := st.append(rec)
	if err != nil {
		return nil, err
	}
	return func() error { return st.waitSynced(seq) }, nil
}

// ReleaseRecovered drops the recovered snapshot and record buffers once the
// owner has folded them into its state — they are loaded once at Open and
// would otherwise stay resident for the life of the store.
func (st *Store) ReleaseRecovered() {
	st.snapshot = nil
	st.records = nil
}

func (st *Store) append(rec Record) (uint64, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("durable: encoding record: %w", err)
	}
	if len(payload) > maxRecordBytes {
		return 0, fmt.Errorf("durable: record of %d bytes exceeds the %d-byte cap", len(payload), maxRecordBytes)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return 0, ErrClosed
	}
	if st.syncErr != nil {
		return 0, st.syncErr
	}
	if err := WriteFrame(st.w, payload); err != nil {
		return 0, st.poisonLocked(err)
	}
	st.activeLen += frameHeaderLen + int64(len(payload))
	st.activeRecs++
	st.appendSeq++
	seq := st.appendSeq
	if st.opts.SyncInterval < 0 {
		if err := st.flushLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// poisonLocked records a sticky write/fsync failure: once bytes may be
// missing from the log, every later append must fail too, or replay would see
// a gap. Caller holds st.mu.
func (st *Store) poisonLocked(err error) error {
	if st.syncErr == nil {
		st.syncErr = fmt.Errorf("durable: log write failed: %w", err)
		st.cond.Broadcast()
		st.signalSyncedLocked() // wake tailing readers so they observe the poison
	}
	return st.syncErr
}

// flushLocked flushes the buffer and fsyncs the active segment. Caller holds
// st.mu.
//
//cpvet:allow blockedlock -- group commit by design: the fsync runs under st.mu so appenders observe a consistent syncedSeq; waiters park on cond, not the lock
func (st *Store) flushLocked() error {
	if st.syncErr != nil {
		return st.syncErr
	}
	if st.syncedSeq == st.appendSeq {
		return nil
	}
	if err := st.w.Flush(); err != nil {
		return st.poisonLocked(err)
	}
	start := time.Now() //cpvet:allow nowalltime -- fsync-latency metric only, never persisted
	if err := st.f.Sync(); err != nil {
		return st.poisonLocked(err)
	}
	st.fsyncLast = time.Since(start) //cpvet:allow nowalltime -- fsync-latency metric only, never persisted
	st.fsyncTotal += st.fsyncLast
	st.fsyncCount++
	st.syncedSeq = st.appendSeq
	st.syncedLen = st.activeLen
	st.syncedRecs = st.activeRecs
	st.cond.Broadcast()
	st.signalSyncedLocked()
	return nil
}

func (st *Store) waitSynced(seq uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.syncedSeq < seq && st.syncErr == nil && !st.closed {
		st.cond.Wait()
	}
	if st.syncErr != nil {
		return st.syncErr
	}
	if st.syncedSeq < seq {
		return ErrClosed
	}
	return nil
}

// Sync forces an immediate flush+fsync of everything appended so far.
func (st *Store) Sync() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	return st.flushLocked()
}

// flusher is the group-commit loop: while appends are outstanding it fsyncs
// once per SyncInterval and wakes every AppendSync waiter at once.
func (st *Store) flusher() {
	defer close(st.flusherDone)
	interval := st.opts.SyncInterval
	if interval < 0 {
		// Synchronous mode: appends fsync inline; nothing to do here.
		<-st.flusherStop
		return
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-st.flusherStop:
			return
		case <-ticker.C:
			st.mu.Lock()
			if !st.closed {
				if err := st.flushLocked(); err != nil {
					st.opts.Logf("durable: background fsync failed: %v", err)
				}
			}
			st.mu.Unlock()
		}
	}
}

// Compact rotates the WAL and replaces everything before the rotation point
// with one snapshot: it seals the active segment, opens a new one (appends
// proceed there immediately), calls state for the owner's serialized state —
// which must reflect at least every record appended before Compact was
// called — writes it as the new snapshot, and deletes the superseded
// segments and older snapshots. On a state or write error the old segments
// stay, so a failed compaction costs only disk space, never records.
//
//cpvet:allow walframe -- sanctioned helper: removes only segments the new snapshot covers
//cpvet:allow blockedlock -- segment rotation must be atomic with the append stream: startSegment's create+fsync runs under st.mu so no append lands between seal and rotate
func (st *Store) Compact(state func() ([]byte, error)) error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return ErrClosed
	}
	if err := st.flushLocked(); err != nil {
		st.mu.Unlock()
		return err
	}
	sealed := st.activeSeq
	sealedOrd, sealedCount := st.activeStart, st.activeRecs
	old := st.f
	if err := st.startSegment(sealed + 1); err != nil {
		// startSegment left st.f/st.w untouched on failure: the sealed segment
		// is intact, flushed, and stays active.
		st.mu.Unlock()
		return err
	}
	// The sealed segment stays shippable until its file is deleted below.
	st.sealedStart[sealed] = sealedOrd
	st.sealedRecs[sealed] = sealedCount
	st.activeStart = sealedOrd + sealedCount
	// The sealed segment was flushed and fsynced by flushLocked above, so a
	// close error cannot lose data.
	_ = old.Close()
	st.mu.Unlock()

	// Serialize outside the lock: appends (to the new segment) keep flowing
	// while the snapshot is built and written. Records that race into the
	// snapshot AND the new segment are re-applied harmlessly as long as the
	// owner's apply is idempotent (see Records).
	b, err := state()
	if err != nil {
		return fmt.Errorf("durable: snapshot state: %w", err)
	}
	if err := writeSnapshot(st.dir, sealed, b); err != nil {
		return err
	}
	st.mu.Lock()
	st.snapsWritten++
	st.mu.Unlock()
	// The snapshot covers every segment up to and including the sealed one,
	// and any older snapshot.
	segs, snaps, err := scanDir(st.dir)
	if err != nil {
		return err
	}
	for _, seq := range segs {
		if seq <= sealed {
			if err := os.Remove(filepath.Join(st.dir, segName(seq))); err != nil {
				st.opts.Logf("durable: removing compacted %s: %v", segName(seq), err)
				continue // the file survives, so it stays shippable
			}
			st.mu.Lock()
			delete(st.sealedStart, seq)
			delete(st.sealedRecs, seq)
			st.mu.Unlock()
		}
	}
	for _, seq := range snaps {
		if seq < sealed {
			if err := os.Remove(filepath.Join(st.dir, snapName(seq))); err != nil {
				st.opts.Logf("durable: removing superseded %s: %v", snapName(seq), err)
			}
		}
	}
	return syncDir(st.dir)
}

// Close flushes and fsyncs outstanding appends and closes the active
// segment. Further operations fail with ErrClosed. Safe to call twice.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	err := st.flushLocked()
	st.closed = true
	st.cond.Broadcast()
	st.signalSyncedLocked() // wake tailing readers so they observe the close
	closeErr := st.f.Close()
	st.mu.Unlock()
	close(st.flusherStop)
	<-st.flusherDone
	if err != nil {
		return err
	}
	if closeErr != nil {
		return fmt.Errorf("durable: %w", closeErr)
	}
	return nil
}

// writeSnapshot writes seq's snapshot atomically (WriteFileAtomic).
func writeSnapshot(dir string, seq int, payload []byte) error {
	var header [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.Checksum(payload, crcTable))
	return WriteFileAtomic(filepath.Join(dir, snapName(seq)), []byte(snapMagic), header[:], payload)
}

// WriteFileAtomic replaces path with the concatenated chunks so that a
// crash leaves either the old file or the new one, never a torn one: the
// chunks go to a temp file in path's directory, which is fsynced and
// renamed over path, and then the directory is fsynced. Snapshots and the
// replica's cursor file are written this way.
//
//cpvet:allow walframe -- sanctioned helper: the atomic tmp+rename implementation itself
func WriteFileAtomic(path string, chunks ...[]byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	for _, c := range chunks {
		if _, err = tmp.Write(c); err != nil {
			break
		}
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("durable: writing %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return syncDir(dir)
}

// readSnapshot loads and verifies one snapshot file.
func readSnapshot(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) < len(snapMagic)+frameHeaderLen || string(b[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("bad snapshot header")
	}
	body := b[len(snapMagic):]
	length := binary.LittleEndian.Uint32(body[0:4])
	sum := binary.LittleEndian.Uint32(body[4:8])
	payload := body[frameHeaderLen:]
	if uint32(len(payload)) != length {
		return nil, fmt.Errorf("snapshot length %d, header says %d", len(payload), length)
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, fmt.Errorf("snapshot checksum mismatch")
	}
	return payload, nil
}

// syncDir fsyncs a directory so renames/creates/removes inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("durable: fsync %s: %w", dir, serr)
	}
	if cerr != nil {
		return fmt.Errorf("durable: closing %s: %w", dir, cerr)
	}
	return nil
}
