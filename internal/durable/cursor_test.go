package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestCursorStringParseRoundTrip(t *testing.T) {
	for _, c := range []Cursor{{}, {Segment: 1, Offset: 8}, {Segment: 42, Offset: 123456789}} {
		got, err := ParseCursor(c.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != c {
			t.Fatalf("round trip %v -> %q -> %v", c, c.String(), got)
		}
	}
	for _, bad := range []string{"", "1", "1,2,3junk", "x,y", "-1,8", "1,-8", "+1,2", "01,2", "-0,0", "1,+0"} {
		if _, err := ParseCursor(bad); err == nil {
			t.Fatalf("ParseCursor(%q) accepted", bad)
		}
	}
}

// readAll drains ReadFrom from the given cursor, returning payload indices
// (the i field appendN writes), ordinals, and the resume cursor after each
// record.
func readAll(t *testing.T, st *Store, from Cursor) (idx []int, ords []int64, nexts []Cursor, end Cursor) {
	t.Helper()
	end, err := st.ReadFrom(from, func(payload []byte, ord int64, next Cursor) error {
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			return err
		}
		var p struct{ I int }
		if err := json.Unmarshal(r.Data, &p); err != nil {
			return err
		}
		idx = append(idx, p.I)
		ords = append(ords, ord)
		nexts = append(nexts, next)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return idx, ords, nexts, end
}

// TestReadFromEverySuffix pins the resumability contract behind WAL
// shipping: reading from the cursor returned alongside record i yields
// exactly records i+1..n with continuous global ordinals — for every i.
func TestReadFromEverySuffix(t *testing.T) {
	st := openT(t, t.TempDir(), Options{})
	defer st.Close()
	const n = 9
	appendN(t, st, n)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	idx, ords, nexts, end := readAll(t, st, SegmentStart(1))
	if len(idx) != n {
		t.Fatalf("read %d records, want %d", len(idx), n)
	}
	for i := 0; i < n; i++ {
		if idx[i] != i || ords[i] != int64(i+1) {
			t.Fatalf("record %d: payload i=%d ord=%d", i, idx[i], ords[i])
		}
	}
	tip, tipOrd := st.SyncedTip()
	if tipOrd != n {
		t.Fatalf("tip ordinal %d, want %d", tipOrd, n)
	}
	if end != tip || nexts[n-1] != tip {
		t.Fatalf("final cursors %v / %v, want the durable tip %v", end, nexts[n-1], tip)
	}
	for i := 0; i < n; i++ {
		suffix, subOrds, _, _ := readAll(t, st, nexts[i])
		if len(suffix) != n-1-i {
			t.Fatalf("resume after record %d: %d records, want %d", i, len(suffix), n-1-i)
		}
		for j, v := range suffix {
			if v != i+1+j || subOrds[j] != int64(i+2+j) {
				t.Fatalf("resume after record %d: position %d has payload %d ord %d", i, j, v, subOrds[j])
			}
		}
	}
}

// TestReadFromMidFrameCursor pins the boundary invariant: an offset inside a
// frame fails loudly instead of resynchronizing on garbage.
func TestReadFromMidFrameCursor(t *testing.T) {
	st := openT(t, t.TempDir(), Options{})
	defer st.Close()
	appendN(t, st, 3)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	from := SegmentStart(1)
	from.Offset += 3 // inside the first frame's header
	_, err := st.ReadFrom(from, func([]byte, int64, Cursor) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "record boundary") {
		t.Fatalf("mid-frame cursor: got %v, want a record-boundary error", err)
	}
}

// TestReadFromStopsAtDurableFrontier pins the invariant that makes shipping
// crash-consistent: a record a reader is handed is always one the writer
// would also recover after a crash, i.e. ReadFrom never surfaces appends
// that have not been fsynced yet.
func TestReadFromStopsAtDurableFrontier(t *testing.T) {
	st := openT(t, t.TempDir(), Options{SyncInterval: time.Hour})
	defer st.Close()
	appendN(t, st, 4) // buffered; the hour-long group-commit window never fires
	idx, _, _, _ := readAll(t, st, SegmentStart(1))
	if len(idx) != 0 {
		t.Fatalf("read %d records past the durable frontier", len(idx))
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if idx, _, _, _ = readAll(t, st, SegmentStart(1)); len(idx) != 4 {
		t.Fatalf("read %d records after sync, want 4", len(idx))
	}
}

// TestSyncedSignalTail pins the live-tail handshake: take the signal, catch
// up, wait — an fsync landing afterwards closes the channel and the next
// ReadFrom returns the new records.
func TestSyncedSignalTail(t *testing.T) {
	st := openT(t, t.TempDir(), Options{SyncInterval: time.Millisecond})
	defer st.Close()
	appendN(t, st, 2)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	_, _, _, end := readAll(t, st, SegmentStart(1))
	signal := st.SyncedSignal()
	go func() {
		_ = st.AppendSync(rec("e", "step", map[string]int{"i": 2}))
	}()
	select {
	case <-signal:
	case <-time.After(10 * time.Second):
		t.Fatal("frontier advance never signaled")
	}
	idx, _, _, _ := readAll(t, st, end)
	if len(idx) != 1 || idx[0] != 2 {
		t.Fatalf("tail read %v, want the one new record", idx)
	}
}

// TestReadFromCompacted pins the re-bootstrap contract: a cursor into a
// segment that compaction folded into a snapshot answers ErrCompacted, the
// snapshot is re-readable via LatestSnapshot with the segment it covers, and
// global ordinals keep counting across the compaction.
func TestReadFromCompacted(t *testing.T) {
	st := openT(t, t.TempDir(), Options{})
	defer st.Close()
	if _, _, ok, err := st.LatestSnapshot(); err != nil || ok {
		t.Fatalf("fresh store: snapshot ok=%v err=%v", ok, err)
	}
	appendN(t, st, 5)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	state := []byte(`{"state":"everything-through-segment-1"}`)
	if err := st.Compact(func() ([]byte, error) { return state, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReadFrom(SegmentStart(1), func([]byte, int64, Cursor) error { return nil }); !errors.Is(err, ErrCompacted) {
		t.Fatalf("compacted cursor: got %v, want ErrCompacted", err)
	}
	payload, seq, ok, err := st.LatestSnapshot()
	if err != nil || !ok || seq != 1 || string(payload) != string(state) {
		t.Fatalf("LatestSnapshot = (%q, %d, %v, %v)", payload, seq, ok, err)
	}
	if first := st.FirstCursor(); first != SegmentStart(2) {
		t.Fatalf("FirstCursor after compaction = %v, want %v", first, SegmentStart(2))
	}
	for i := 5; i < 7; i++ {
		if err := st.Append(rec("e", "step", map[string]int{"i": i})); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	idx, ords, _, _ := readAll(t, st, st.FirstCursor())
	if fmt.Sprint(idx) != "[5 6]" || fmt.Sprint(ords) != "[6 7]" {
		t.Fatalf("post-compaction read idx=%v ords=%v, want [5 6] with ordinals [6 7]", idx, ords)
	}
}
