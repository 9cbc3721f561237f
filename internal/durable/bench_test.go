package durable

import (
	"encoding/json"
	"testing"
)

// BenchmarkAppend measures the WAL append layer for one clean-step-sized
// record: JSON encoding plus CRC framing into the segment buffer (buffered,
// fsync left to the group-commit flusher) and the same followed by an
// fsync of the segment (fsync, SyncInterval < 0: every append is durable on
// return). The fsync variant measures the disk under b.TempDir.
func BenchmarkAppend(b *testing.B) {
	data, err := json.Marshal(map[string]any{
		"id":   "cs_0123456789abcdef",
		"step": map[string]int{"row": 417, "candidate": 2, "examined": 1536},
	})
	if err != nil {
		b.Fatal(err)
	}
	rec := Record{Entity: "session/cs_0123456789abcdef", Type: "step", Data: data}
	for _, bc := range []struct {
		name string
		opts Options
	}{
		{"buffered", Options{SyncInterval: 1 << 62}},
		{"fsync", Options{SyncInterval: -1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bc.opts.Logf = b.Logf
			st, err := Open(b.TempDir(), bc.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			b.ReportAllocs()
			for b.Loop() {
				if err := st.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
