package replica

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/durable"
)

// CursorFileName is the follower's applied-cursor file inside its data
// directory.
const CursorFileName = "replica-cursor.json"

// SaveCursor atomically persists a follower's applied cursor
// (durable.WriteFileAtomic, the discipline the WAL uses for snapshots), so a
// crash leaves either the old cursor or the new one, never a torn file. The
// owner must only call this after the records up to the cursor are durable
// locally, or a restart would skip records it never journaled.
func SaveCursor(path string, c durable.Cursor) error {
	b, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("replica: encoding cursor: %w", err)
	}
	if err := durable.WriteFileAtomic(path, b); err != nil {
		return fmt.Errorf("replica: saving cursor: %w", err)
	}
	return nil
}

// LoadCursor reads a cursor saved by SaveCursor. ok is false when the file
// does not exist (a fresh follower); a present-but-unreadable file is an
// error, because silently bootstrapping would re-apply from zero over state
// the local WAL already holds.
func LoadCursor(path string) (c durable.Cursor, ok bool, err error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return durable.Cursor{}, false, nil
	}
	if err != nil {
		return durable.Cursor{}, false, fmt.Errorf("replica: %w", err)
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return durable.Cursor{}, false, fmt.Errorf("replica: decoding cursor file %s: %w", path, err)
	}
	return c, true, nil
}
