package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// TestGeneratorGolden pins every generator's packet sequence: a changed
// draw anywhere in xrand or in a generator changes a digest. Steady's
// 65536-host pools take Zipf's CDF path at its largest size. The
// constants were recorded once and have no update path; a change that
// means to alter a stream must say so and replace them by hand.
func TestGeneratorGolden(t *testing.T) {
	cases := []struct {
		name   string
		feed   func() (Feed, error)
		n      int
		digest string
	}{
		{"Steady", func() (Feed, error) { return NewSteady(DefaultSteady(11, 2)) }, 201631,
			"41124669e953cdfb57a27495b354f8ed7b5419b0ceb548a8f4769b220784feb5"},
		{"Bursty", func() (Feed, error) { return NewBursty(DefaultBursty(12, 20)) }, 245318,
			"c1bfd207d133902e56f9ee9f9a2199456516db784fd732029f6c8173c89ba963"},
		{"DDoS", func() (Feed, error) { return NewDDoS(DefaultDDoS(13, 3)) }, 160591,
			"1923c6a76312ad42009940a7bef7675e612a8d7d88ffcd86f1db82e35856656b"},
		{"Flows", func() (Feed, error) { return NewFlows(DefaultFlows(14, 20)) }, 86732,
			"47c7e9d1653fafec5b34a0dd1c163c440eec49ff2157679d5429208fac0dddc9"},
		{"Flood", func() (Feed, error) {
			return NewFlood(FloodConfig{Seed: 15, Start: 1, End: 2, Rate: 100000, Victim: 0xac100001})
		}, 99770,
			"639e2945b7fc476c3dcd855b4deeb73f423210d760745dbda625e134a37b5a5a"},
	}
	for _, c := range cases {
		f, err := c.feed()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		n, digest := streamDigest(f)
		if n != c.n || digest != c.digest {
			t.Errorf("%s: %d packets, sha256 %s; want %d, %s", c.name, n, digest, c.n, c.digest)
		}
	}
}

// streamDigest drains f and hashes every field of every packet in order.
func streamDigest(f Feed) (int, string) {
	h := sha256.New()
	var rec [23]byte
	n := 0
	for {
		p, ok := f.Next()
		if !ok {
			break
		}
		binary.LittleEndian.PutUint64(rec[0:], p.Time)
		binary.LittleEndian.PutUint32(rec[8:], p.SrcIP)
		binary.LittleEndian.PutUint32(rec[12:], p.DstIP)
		binary.LittleEndian.PutUint16(rec[16:], p.SrcPort)
		binary.LittleEndian.PutUint16(rec[18:], p.DstPort)
		rec[20] = p.Proto
		binary.LittleEndian.PutUint16(rec[21:], p.Len)
		h.Write(rec[:])
		n++
	}
	return n, hex.EncodeToString(h.Sum(nil))
}
