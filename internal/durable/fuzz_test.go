package durable

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzParseCursor checks the cursor syntax is canonical: every string
// ParseCursor accepts is exactly what Cursor.String renders for the parsed
// cursor, and that cursor is non-negative.
func FuzzParseCursor(f *testing.F) {
	for _, s := range []string{"0,0", "1,8", "42,123456789", "+1,2", "01,2", "-0,0", "1,+0", "1,", ",1", "1,2,3"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseCursor(s)
		if err != nil {
			return
		}
		if c.Segment < 0 || c.Offset < 0 {
			t.Fatalf("ParseCursor(%q) = %+v: negative", s, c)
		}
		if c.String() != s {
			t.Fatalf("ParseCursor(%q) = %+v, which renders as %q", s, c, c.String())
		}
	})
}

// FuzzReadFrame feeds arbitrary bytes to ReadFrame, frame after frame: it
// must never panic, every error must be a clean boundary, a torn frame or a
// corrupt one, and every frame it accepts must be exactly what WriteFrame
// renders for its payload.
func FuzzReadFrame(f *testing.F) {
	var two bytes.Buffer
	for _, p := range [][]byte{[]byte(`{"entity":"session/cs_1","type":"step"}`), nil} {
		if err := WriteFrame(&two, p); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(two.Bytes())
	f.Add(two.Bytes()[:two.Len()-3])                        // torn payload
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 1, 2}) // length over the cap
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, 'a', 'b', 'c', 'd'})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			start := len(data) - r.Len()
			payload, err := ReadFrame(r)
			if err != nil {
				if err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrCorruptFrame) {
					t.Fatalf("ReadFrame at byte %d: unexpected error %v", start, err)
				}
				return
			}
			var buf bytes.Buffer
			if err := WriteFrame(&buf, payload); err != nil {
				t.Fatal(err)
			}
			if consumed := data[start : len(data)-r.Len()]; !bytes.Equal(buf.Bytes(), consumed) {
				t.Fatalf("frame at byte %d: consumed %x, WriteFrame renders %x", start, consumed, buf.Bytes())
			}
		}
	})
}
