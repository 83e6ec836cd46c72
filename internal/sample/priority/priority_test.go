package priority

import (
	"math"
	"testing"
	"testing/quick"

	"streamop/internal/xrand"
)

func TestNewValidation(t *testing.T) {
	r := xrand.New(1)
	if _, err := New[int](0, r); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New[int](5, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestFixedSize(t *testing.T) {
	s, _ := New[int](10, xrand.New(2))
	for i := 0; i < 10000; i++ {
		s.Offer(1+float64(i%100), i)
	}
	if len(s.Items) != 10 {
		t.Errorf("Size = %d", len(s.Items))
	}
	if s.Tau <= 0 {
		t.Error("tau not set after overflow")
	}
}

func TestNonPositiveWeightIgnored(t *testing.T) {
	s, _ := New[int](4, xrand.New(3))
	if in, _, _ := s.Offer(0, 1); in {
		t.Error("zero weight admitted")
	}
	if in, _, _ := s.Offer(-5, 2); in {
		t.Error("negative weight admitted")
	}
	if len(s.Items) != 0 {
		t.Errorf("Size = %d", len(s.Items))
	}
}

func TestBelowCapacityExact(t *testing.T) {
	// With at most k items the sample is the whole input and tau is 0,
	// so estimates are exact.
	s, _ := New[int](100, xrand.New(4))
	var total float64
	for i := 0; i < 50; i++ {
		w := float64(10 + i)
		total += w
		s.Offer(w, i)
	}
	if got := s.Estimate(nil); got != total {
		t.Errorf("estimate %v, want exact %v", got, total)
	}
}

func TestUnbiasedOverRuns(t *testing.T) {
	// E[estimate] = actual for the whole stream and for arbitrary subsets.
	const items, k = 3000, 64
	var totalRatio, evenRatio float64
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		r := xrand.New(uint64(trial)*131 + 7)
		s, _ := New[int](k, r)
		var actual, actualEven float64
		for i := 0; i < items; i++ {
			w := r.Pareto(1.3, 1)
			actual += w
			if i%2 == 0 {
				actualEven += w
			}
			s.Offer(w, i)
		}
		totalRatio += s.Estimate(nil) / actual
		evenRatio += s.Estimate(func(i int) bool { return i%2 == 0 }) / actualEven
	}
	if m := totalRatio / trials; math.Abs(m-1) > 0.05 {
		t.Errorf("mean total estimate ratio = %v", m)
	}
	if m := evenRatio / trials; math.Abs(m-1) > 0.08 {
		t.Errorf("mean even-subset estimate ratio = %v", m)
	}
}

func TestHeavyItemsAlwaysKept(t *testing.T) {
	// An item whose weight exceeds every other priority is never evicted
	// (its priority >= its weight).
	s, _ := New[int](8, xrand.New(5))
	s.Offer(1e12, -1)
	for i := 0; i < 5000; i++ {
		s.Offer(1, i)
	}
	found := false
	for _, sm := range s.Items {
		if sm.Payload == -1 {
			found = true
			if s.AdjustedWeight(sm) != 1e12 {
				t.Errorf("heavy adjusted weight = %v", s.AdjustedWeight(sm))
			}
		}
	}
	if !found {
		t.Error("heavy item evicted")
	}
}

func TestTauIsKPlusFirstPriority(t *testing.T) {
	// Property: tau equals the (k+1)-st highest priority generated, and
	// the sample holds exactly the k highest.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		k := 1 + r.Intn(16)
		s, _ := New[int](k, r)
		// Every retained priority must exceed tau, the highest evicted
		// priority.
		n := k + 1 + r.Intn(200)
		for i := 0; i < n; i++ {
			s.Offer(0.5+r.Float64()*10, i)
		}
		if len(s.Items) != k {
			return false
		}
		for _, sm := range s.Items {
			if sm.Priority <= s.Tau {
				return false
			}
		}
		return s.Tau > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestOfferReportsEvicted checks the eviction report the operator's tag
// set relies on: the reported payloads are exactly the ones that left the
// sample.
func TestOfferReportsEvicted(t *testing.T) {
	s, _ := New[int](6, xrand.New(7))
	live := map[int]bool{}
	for i := 0; i < 3000; i++ {
		in, evicted, displaced := s.Offer(1+float64(i%50), i)
		if displaced {
			if !in || !live[evicted] {
				t.Fatalf("item %d: in=%v, evicted %d live=%v", i, in, evicted, live[evicted])
			}
			delete(live, evicted)
		}
		if in {
			live[i] = true
		}
	}
	if len(live) != len(s.Items) {
		t.Fatalf("tracked %d members, sample holds %d", len(live), len(s.Items))
	}
	for _, sm := range s.Items {
		if !live[sm.Payload] {
			t.Errorf("sample holds %d, which the reports evicted", sm.Payload)
		}
	}
}

func TestReset(t *testing.T) {
	s, _ := New[int](4, xrand.New(6))
	for i := 0; i < 100; i++ {
		s.Offer(1, i)
	}
	s.Reset()
	if len(s.Items) != 0 || s.Tau != 0 {
		t.Error("Reset incomplete")
	}
}

func BenchmarkOffer(b *testing.B) {
	s, _ := New[int](1000, xrand.New(1))
	r := xrand.New(2)
	ws := make([]float64, 8192)
	for i := range ws {
		ws[i] = 40 + r.Float64()*1460
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Offer(ws[i&8191], i)
	}
}
