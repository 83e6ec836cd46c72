package distinct

import (
	"math"
	"testing"
	"testing/quick"

	"streamop/internal/xrand"
)

// hashUint64 hashes a 64-bit key to a uniform 64-bit value (a
// splitmix64-style mixer), so the tests offer hashes of real values.
func hashUint64(x, seed uint64) uint64 {
	x ^= seed * 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("capacity 0 accepted")
	}
	s, err := New(4)
	if err != nil || s.Level() != 0 {
		t.Fatalf("New(4) = %v, %v", s, err)
	}
}

func TestQualifies(t *testing.T) {
	cases := []struct {
		h    uint64
		l    uint
		want bool
	}{
		{0b1, 0, true}, {0b1, 1, false},
		{0b10, 1, true}, {0b10, 2, false},
		{0b1000, 3, true}, {0b1000, 4, false},
		{0, 64, true}, // all-zero hash qualifies at every level
	}
	for _, tc := range cases {
		if got := Qualifies(tc.h, tc.l); got != tc.want {
			t.Errorf("Qualifies(%b, %d) = %v", tc.h, tc.l, got)
		}
	}
}

func TestCountsDuplicates(t *testing.T) {
	s, _ := New(10)
	s.Offer(0b100) // qualifies at level 0
	s.Offer(0b100)
	s.Offer(0b100)
	sample := s.Sample()
	if len(sample) != 1 || sample[0].Count != 3 {
		t.Errorf("sample = %+v", sample)
	}
}

func TestLevelRises(t *testing.T) {
	s, _ := New(4)
	r := xrand.New(1)
	for i := 0; i < 10000; i++ {
		s.Offer(r.Uint64())
	}
	if s.Level() == 0 {
		t.Error("level never rose")
	}
	if s.Size() > 4 {
		t.Errorf("size %d over capacity", s.Size())
	}
	for _, e := range s.Sample() {
		if !Qualifies(e.Hash, s.Level()) {
			t.Errorf("retained hash %x does not qualify at level %d", e.Hash, s.Level())
		}
	}
}

func TestDistinctEstimate(t *testing.T) {
	const distinct = 50000
	s, _ := New(256)
	r := xrand.New(2)
	// Hash real values; feed duplicates too.
	for rep := 0; rep < 3; rep++ {
		for i := 0; i < distinct; i++ {
			s.Offer(hashUint64(uint64(i), 9))
		}
	}
	_ = r
	est := s.DistinctEstimate()
	if math.Abs(est-distinct)/distinct > 0.25 {
		t.Errorf("DistinctEstimate = %v, want ~%d", est, distinct)
	}
}

func TestUniformOverDistinct(t *testing.T) {
	// Frequency of a value must not affect its inclusion probability:
	// value A appears 1000x, values B_i once each; over many hash seeds,
	// A's inclusion rate should match the average B inclusion rate.
	const trials = 400
	aIn, bIn := 0, 0
	for seed := uint64(0); seed < trials; seed++ {
		s, _ := New(16)
		ha := hashUint64(0xAAAA, seed)
		for i := 0; i < 1000; i++ {
			s.Offer(ha)
		}
		for i := uint64(1); i <= 127; i++ {
			s.Offer(hashUint64(i, seed))
		}
		for _, e := range s.Sample() {
			if e.Hash == ha {
				aIn++
			} else {
				bIn++
			}
		}
	}
	aRate := float64(aIn) / trials
	bRate := float64(bIn) / trials / 127
	if math.Abs(aRate-bRate) > 0.05 {
		t.Errorf("inclusion rates differ: heavy %v vs singleton %v", aRate, bRate)
	}
}

func TestReset(t *testing.T) {
	s, _ := New(2)
	r := xrand.New(4)
	for i := 0; i < 100; i++ {
		s.Offer(r.Uint64())
	}
	s.Reset()
	if s.Level() != 0 || s.Size() != 0 {
		t.Error("Reset incomplete")
	}
}

func TestInvariantsQuick(t *testing.T) {
	// Properties: size <= capacity after every Offer; every retained hash
	// qualifies at the current level; estimate >= size.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		cap := 1 + r.Intn(64)
		s, _ := New(cap)
		for i := 0; i < 2000; i++ {
			s.Offer(r.Uint64n(1 << uint(4+r.Intn(40))))
			if s.Size() > cap {
				return false
			}
		}
		for _, e := range s.Sample() {
			if !Qualifies(e.Hash, s.Level()) {
				return false
			}
		}
		return s.DistinctEstimate() >= float64(s.Size())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkOffer(b *testing.B) {
	s, _ := New(1024)
	r := xrand.New(1)
	hs := make([]uint64, 8192)
	for i := range hs {
		hs[i] = r.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Offer(hs[i&8191])
	}
}
