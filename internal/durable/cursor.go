package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// This file is the WAL's read-side shipping surface: a resumable
// (segment, offset) Cursor over the record stream, a ReadFrom that scans any
// suffix of the log up to the durable frontier, a SyncedSignal for live
// tailing, and the frame reader/writer exported so the same CRC framing that
// protects segments on disk protects records shipped over a network stream.
//
// Two invariants make the cursor sound for replication:
//
//   - ReadFrom never reads past the fsynced frontier of the active segment,
//     so a record handed to a follower is always one the leader would also
//     recover after a crash — a follower can never be ahead of a restarted
//     leader.
//   - A cursor addresses a frame boundary. Offsets that land inside a frame
//     fail loudly instead of resynchronizing on garbage.

// Cursor addresses a record boundary in the WAL: the segment sequence number
// and the byte offset of the next frame within that segment. The zero Cursor
// means "before everything" — a follower with no state bootstraps from the
// leader's snapshot instead of a zero cursor.
type Cursor struct {
	Segment int   `json:"segment"`
	Offset  int64 `json:"offset"`
}

// IsZero reports whether c is the unset cursor.
func (c Cursor) IsZero() bool { return c.Segment == 0 && c.Offset == 0 }

// String renders the cursor in the "segment,offset" form ParseCursor reads —
// the wire syntax of the ship stream's from= parameter.
func (c Cursor) String() string { return fmt.Sprintf("%d,%d", c.Segment, c.Offset) }

// ParseCursor parses the "segment,offset" form produced by Cursor.String,
// and only that form: any input String would not emit for the parsed cursor
// — a sign, a leading zero, "-0" — is rejected, so every accepted string
// round-trips.
func ParseCursor(s string) (Cursor, error) {
	segStr, offStr, ok := strings.Cut(s, ",")
	seg, err1 := strconv.Atoi(segStr)
	off, err2 := strconv.ParseInt(offStr, 10, 64)
	if !ok || err1 != nil || err2 != nil {
		return Cursor{}, fmt.Errorf("durable: malformed cursor %q (want \"segment,offset\")", s)
	}
	c := Cursor{Segment: seg, Offset: off}
	if c.Segment < 0 || c.Offset < 0 {
		return Cursor{}, fmt.Errorf("durable: negative cursor %q", s)
	}
	if c.String() != s {
		return Cursor{}, fmt.Errorf("durable: non-canonical cursor %q (want %q)", s, c.String())
	}
	return c, nil
}

// SegmentStart returns the cursor addressing the first record of segment
// seq — just past the magic header. It is how a reader positions itself at
// the top of a segment without knowing the header length.
func SegmentStart(seq int) Cursor {
	return Cursor{Segment: seq, Offset: int64(len(segMagic))}
}

// Before reports whether c addresses an earlier log position than o.
func (c Cursor) Before(o Cursor) bool {
	if c.Segment != o.Segment {
		return c.Segment < o.Segment
	}
	return c.Offset < o.Offset
}

// ErrCompacted reports a cursor that predates the oldest on-disk segment:
// the records it addresses were folded into a snapshot and deleted, so the
// reader must re-bootstrap from the snapshot instead of resuming.
var ErrCompacted = errors.New("durable: cursor predates the oldest on-disk segment")

// ErrCorruptFrame reports a frame whose checksum or length field is wrong —
// a torn or bit-flipped record. Readers must refuse the frame and everything
// after it rather than resynchronize.
var ErrCorruptFrame = errors.New("durable: corrupt frame")

// WriteFrame writes one CRC-framed payload to w — the exact
// [length][CRC-32C][payload] frame the WAL uses on disk, reusable for
// shipping records over a network stream with the same torn/corrupt
// detection on the receiving end.
func WriteFrame(w io.Writer, payload []byte) error {
	var frame [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(frame[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame written by WriteFrame. It returns io.EOF at a
// clean frame boundary, an error wrapping io.ErrUnexpectedEOF for a torn
// frame, and one wrapping ErrCorruptFrame for a checksum mismatch or an
// implausible length field. Only a nil error means the payload is intact.
func ReadFrame(r io.Reader) ([]byte, error) {
	var frame [frameHeaderLen]byte
	if _, err := io.ReadFull(r, frame[:]); err != nil {
		return nil, err // io.EOF: clean boundary; io.ErrUnexpectedEOF: torn header
	}
	length := binary.LittleEndian.Uint32(frame[0:4])
	sum := binary.LittleEndian.Uint32(frame[4:8])
	if length > maxRecordBytes {
		return nil, fmt.Errorf("%w: implausible record length %d", ErrCorruptFrame, length)
	}
	payload, err := readPayload(r, int(length))
	if err != nil {
		return nil, err
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, fmt.Errorf("%w: record checksum mismatch", ErrCorruptFrame)
	}
	return payload, nil
}

// readPayload reads exactly n bytes, or fails with an error wrapping
// io.ErrUnexpectedEOF. The buffer starts at 1 MiB at most and doubles as
// bytes arrive, so a garbage length field on a short stream allocates about
// what the stream holds, not up to maxRecordBytes.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, 1<<20))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n, 2*cap(buf))-len(buf))
		}
		m, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

// signalSyncedLocked wakes everything parked on SyncedSignal. Caller holds
// st.mu.
func (st *Store) signalSyncedLocked() {
	if st.syncedCh != nil {
		close(st.syncedCh)
		st.syncedCh = nil
	}
}

// SyncedSignal returns a channel closed the next time the durable frontier
// moves (an fsync lands), the store is poisoned, or it closes. Take the
// channel before calling ReadFrom, then wait on it after catching up — that
// order guarantees no frontier advance between the read and the wait is
// missed.
func (st *Store) SyncedSignal() <-chan struct{} {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed || st.syncErr != nil {
		done := make(chan struct{})
		close(done)
		return done
	}
	if st.syncedCh == nil {
		st.syncedCh = make(chan struct{})
	}
	return st.syncedCh
}

// SyncedTip reports the durable frontier — the cursor just past the last
// fsynced record — and that record's global ordinal (0 when the log is
// empty). The difference between the tip ordinal and a shipped record's
// ordinal is a follower's exact replication lag in records.
func (st *Store) SyncedTip() (Cursor, int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return Cursor{Segment: st.activeSeq, Offset: st.syncedLen}, st.activeStart + st.syncedRecs - 1
}

// FirstCursor returns the position of the first record still on disk — where
// a reader with no cursor of its own starts after applying the newest
// snapshot (see LatestSnapshot).
func (st *Store) FirstCursor() Cursor {
	st.mu.Lock()
	defer st.mu.Unlock()
	oldest := st.activeSeq
	//cpvet:allow maporder -- min over keys is iteration-order independent
	for seq := range st.sealedStart {
		if seq < oldest {
			oldest = seq
		}
	}
	return Cursor{Segment: oldest, Offset: int64(len(segMagic))}
}

// ReadFrom scans the record stream starting at cursor from, calling fn once
// per intact frame with the raw payload bytes, the record's global ordinal,
// and the cursor addressing the position just after it (what a follower
// resumes from once the record is applied). It reads sealed segments to
// their end and the active segment up to the durable frontier, then returns
// the cursor to resume from — combine with SyncedSignal to tail live.
//
// Errors: ErrCompacted when from predates the oldest on-disk segment (the
// caller re-bootstraps from a snapshot), ErrClosed after Close, fn's error
// verbatim, and a hard error for a cursor inside a frame or corruption below
// the durable frontier. A corrupt sealed segment is skipped past with a
// warning — exactly what replay at startup does, so a shipped stream and a
// local recovery converge on the same records.
func (st *Store) ReadFrom(from Cursor, fn func(payload []byte, ord int64, next Cursor) error) (Cursor, error) {
	c := from
	if c.Offset < int64(len(segMagic)) {
		c.Offset = int64(len(segMagic))
	}
	for {
		st.mu.Lock()
		if st.closed {
			st.mu.Unlock()
			return c, ErrClosed
		}
		var (
			startOrd int64
			sealed   bool
			limit    int64
		)
		switch {
		case c.Segment == st.activeSeq:
			startOrd, limit = st.activeStart, st.syncedLen
			if c.Offset >= limit {
				// At (or somehow past) the durable frontier: caught up.
				st.mu.Unlock()
				return c, nil
			}
		case c.Segment > st.activeSeq:
			st.mu.Unlock()
			return c, fmt.Errorf("durable: cursor %s is beyond the active segment %d", c, st.activeSeq)
		default:
			s, ok := st.sealedStart[c.Segment]
			if !ok {
				st.mu.Unlock()
				return c, ErrCompacted
			}
			startOrd, sealed, limit = s, true, -1
		}
		st.mu.Unlock()

		next, err := st.readSegmentFrom(c, sealed, limit, startOrd, fn)
		if err != nil || !sealed {
			return next, err
		}
		c = next // a sealed segment was exhausted; continue into the next one
	}
}

// readSegmentFrom scans one segment from cursor c. For a sealed segment it
// reads to EOF and returns the cursor at the start of the next segment; for
// the active segment it reads exactly limit bytes (the durable frontier
// captured under st.mu) and returns the cursor there.
func (st *Store) readSegmentFrom(c Cursor, sealed bool, limit, startOrd int64, fn func(payload []byte, ord int64, next Cursor) error) (Cursor, error) {
	nextSeg := Cursor{Segment: c.Segment + 1, Offset: int64(len(segMagic))}
	f, err := os.Open(filepath.Join(st.dir, segName(c.Segment)))
	if err != nil {
		if sealed && os.IsNotExist(err) {
			return c, ErrCompacted // deleted by a racing Compact
		}
		return c, fmt.Errorf("durable: %w", err)
	}
	defer func() { _ = f.Close() }() // read-only; nothing to lose

	header := make([]byte, len(segMagic))
	if _, err := io.ReadFull(f, header); err != nil || string(header) != segMagic {
		if sealed {
			// Replay skipped this segment wholesale at startup; mirror it.
			return nextSeg, nil
		}
		return c, fmt.Errorf("durable: active segment %s has a bad header", segName(c.Segment))
	}
	var src io.Reader = f
	if !sealed {
		src = io.LimitReader(f, limit-int64(len(segMagic)))
	}
	r := bufio.NewReader(src)
	off := int64(len(segMagic))
	ord := startOrd
	for {
		payload, err := ReadFrame(r)
		if err == io.EOF {
			if sealed {
				return nextSeg, nil
			}
			return Cursor{Segment: c.Segment, Offset: off}, nil
		}
		if err != nil {
			if sealed && (errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrCorruptFrame)) {
				// Replay logged and skipped the rest of this segment at
				// startup; mirror that so shipped state converges with
				// recovered state.
				st.opts.Logf("durable: reading %s at offset %d: %s; skipping the rest (as replay did)",
					segName(c.Segment), off, frameErrReason(err))
				return nextSeg, nil
			}
			// Below the durable frontier of the active segment nothing may be
			// torn: this is real corruption, not a benign tail.
			return Cursor{Segment: c.Segment, Offset: off}, fmt.Errorf("durable: reading %s at offset %d: %w", segName(c.Segment), off, err)
		}
		end := off + frameHeaderLen + int64(len(payload))
		if off < c.Offset && end > c.Offset {
			return Cursor{Segment: c.Segment, Offset: off}, fmt.Errorf("durable: cursor %s does not address a record boundary", c)
		}
		if off >= c.Offset {
			if err := fn(payload, ord, Cursor{Segment: c.Segment, Offset: end}); err != nil {
				return Cursor{Segment: c.Segment, Offset: off}, err
			}
		}
		off = end
		ord++
	}
}

// LatestSnapshot re-reads the newest intact snapshot from disk: its payload
// and the segment it covers through (a bootstrapping follower resumes the
// stream at segment seq+1). ok is false when no usable snapshot exists.
func (st *Store) LatestSnapshot() (payload []byte, seq int, ok bool, err error) {
	_, snaps, err := scanDir(st.dir)
	if err != nil {
		return nil, 0, false, err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		b, rerr := readSnapshot(filepath.Join(st.dir, snapName(snaps[i])))
		if rerr == nil {
			return b, snaps[i], true, nil
		}
		st.opts.Logf("durable: snapshot %s unreadable (%v); trying an older one", snapName(snaps[i]), rerr)
	}
	return nil, 0, false, nil
}
