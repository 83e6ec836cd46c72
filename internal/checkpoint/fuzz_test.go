package checkpoint

import (
	"bytes"
	"testing"
)

// FuzzUnframe checks the snapshot-file framing layer against arbitrary
// bytes: Unframe must never panic, anything it accepts must re-frame to an
// equally valid file, and any single-bit flip of a valid frame must be
// rejected. Run with: go test -fuzz=FuzzUnframe ./internal/checkpoint
func FuzzUnframe(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(Frame(nil))
	f.Add(Frame([]byte("payload")))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, b []byte) {
		payload, err := Unframe(b)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		framed := Frame(payload)
		again, err := Unframe(framed)
		if err != nil {
			t.Fatalf("accepted %d bytes but rejected the re-framed payload: %v", len(b), err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("payload changed across re-framing: %d vs %d bytes", len(payload), len(again))
		}
		for i := 0; i < len(framed)*8; i += 7 {
			c := append([]byte(nil), framed...)
			c[i/8] ^= 1 << (i % 8)
			if _, err := Unframe(c); err == nil {
				t.Fatalf("bit flip at %d not detected", i)
			}
		}
	})
}

// FuzzDecoder drives the payload codec's Decoder over arbitrary bytes with
// an input-chosen sequence of reads. The decoder must never panic and never
// allocate more than the input could describe — a corrupt snapshot must
// surface as Err(), exactly what engine.Restore relies on.
func FuzzDecoder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	// A script that exercises every read type over a valid encoding.
	e := NewEncoder()
	e.U8(1)
	e.U64(42)
	e.String("seed")
	e.Blob([]byte{1, 2})
	f.Add(append([]byte{0, 3, 5, 7, 8, 9}, e.Bytes()...))
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		// First byte says how many ops to script, then one byte per op,
		// then the payload the decoder reads.
		n := int(b[0]) % 32
		b = b[1:]
		if len(b) < n {
			return
		}
		ops, payload := b[:n], b[n:]
		d := NewDecoder(payload)
		for _, op := range ops {
			switch op % 12 {
			case 0:
				d.U8()
			case 1:
				d.U16()
			case 2:
				d.U32()
			case 3:
				d.U64()
			case 4:
				d.I64()
			case 5:
				d.F64()
			case 6:
				d.Bool()
			case 7:
				_ = d.String()
			case 8:
				d.Blob()
			case 9:
				d.Value()
			case 10:
				d.Values()
			case 11:
				if n := d.Len(); n > d.Remaining() && d.Err() == nil {
					t.Fatalf("Len returned %d with only %d bytes left and no error", n, d.Remaining())
				}
			}
		}
		if d.Err() == nil && d.Remaining() > len(payload) {
			t.Fatal("Remaining grew")
		}
	})
}
