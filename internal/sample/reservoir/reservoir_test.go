package reservoir

import (
	"math"
	"testing"

	"streamop/internal/xrand"
)

func TestNewValidation(t *testing.T) {
	r := xrand.New(1)
	if _, err := New[int](0, r); err == nil {
		t.Error("New(0) accepted")
	}
	if _, err := New[int](5, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestFillPhase(t *testing.T) {
	r, _ := New[int](5, xrand.New(1))
	for i := 0; i < 5; i++ {
		if in, _, displaced := r.Offer(i); !in || displaced {
			t.Errorf("record %d: in=%v displaced=%v during fill", i, in, displaced)
		}
	}
	if len(r.Items) != 5 {
		t.Errorf("sample len = %d", len(r.Items))
	}
	if r.Seen != 5 {
		t.Errorf("Seen = %d", r.Seen)
	}
}

func TestFixedSize(t *testing.T) {
	r, _ := New[int](10, xrand.New(2))
	for i := 0; i < 10000; i++ {
		r.Offer(i)
	}
	if len(r.Items) != 10 {
		t.Errorf("sample size %d", len(r.Items))
	}
}

// TestOfferReportsDisplaced checks the displacement report the operator's
// tag set relies on: every record that enters a full reservoir names the
// member it replaced, and that member is gone from the sample.
func TestOfferReportsDisplaced(t *testing.T) {
	r, _ := New[int](8, xrand.New(3))
	live := map[int]bool{}
	for i := 0; i < 5000; i++ {
		in, evicted, displaced := r.Offer(i)
		if displaced != (in && i >= 8) {
			t.Fatalf("record %d: in=%v displaced=%v", i, in, displaced)
		}
		if displaced {
			if !live[evicted] {
				t.Fatalf("record %d displaced %d, which was not in the sample", i, evicted)
			}
			delete(live, evicted)
		}
		if in {
			live[i] = true
		}
	}
	if len(live) != len(r.Items) {
		t.Fatalf("tracked %d members, sample holds %d", len(live), len(r.Items))
	}
	for _, v := range r.Items {
		if !live[v] {
			t.Errorf("sample holds %d, which the reports evicted", v)
		}
	}
}

// TestUniformityX runs many trials of sampling n from N sequential ints
// and chi-square-tests the inclusion counts per stream position.
func TestUniformityX(t *testing.T) {
	const n, total, trials = 20, 200, 600
	counts := make([]int, total)
	for trial := 0; trial < trials; trial++ {
		r, _ := New[int](n, xrand.New(uint64(trial)*977+3))
		for i := 0; i < total; i++ {
			r.Offer(i)
		}
		for _, v := range r.Items {
			counts[v]++
		}
	}
	expected := float64(trials*n) / float64(total)
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// df = total-1; mean df, sd sqrt(2*df). Allow 5 sigma.
	df := float64(total - 1)
	if limit := df + 5*math.Sqrt(2*df); chi2 > limit {
		t.Errorf("chi2 = %v exceeds %v (non-uniform)", chi2, limit)
	}
	// Also check first and last positions are not systematically biased.
	if float64(counts[0]) < expected*0.7 || float64(counts[0]) > expected*1.3 {
		t.Errorf("position 0 count %d, expected %v", counts[0], expected)
	}
	if last := counts[total-1]; float64(last) < expected*0.7 || float64(last) > expected*1.3 {
		t.Errorf("last position count %d, expected %v", last, expected)
	}
}

func TestUniformityLongStream(t *testing.T) {
	// Skips grow with the stream: on a stream 600x the reservoir the tail
	// half must still hold half the sample.
	const n, total, trials = 8, 5000, 400
	tailHits := 0
	for trial := 0; trial < trials; trial++ {
		r, _ := New[int](n, xrand.New(uint64(trial)+51))
		for i := 0; i < total; i++ {
			r.Offer(i)
		}
		for _, v := range r.Items {
			if v >= total/2 {
				tailHits++
			}
		}
	}
	frac := float64(tailHits) / float64(trials*n)
	if math.Abs(frac-0.5) > 0.05 {
		t.Errorf("tail-half inclusion = %v, want ~0.5", frac)
	}
}

func TestMeanPositionUniform(t *testing.T) {
	// A uniform sample over [0,3000) has mean position 1500.
	var sum float64
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		r, _ := New[int](4, xrand.New(uint64(trial)*31+7))
		for i := 0; i < 3000; i++ {
			r.Offer(i)
		}
		for _, v := range r.Items {
			sum += float64(v)
		}
	}
	if m := sum / float64(trials*4); math.Abs(m-1500) > 120 {
		t.Errorf("mean position %v, want ~1500", m)
	}
}

func TestReset(t *testing.T) {
	r, _ := New[int](3, xrand.New(5))
	for i := 0; i < 100; i++ {
		r.Offer(i)
	}
	r.Reset()
	if r.Seen != 0 || len(r.Items) != 0 {
		t.Error("Reset incomplete")
	}
	if in, _, _ := r.Offer(42); !in {
		t.Error("first record after Reset rejected")
	}
}

func BenchmarkOffer(b *testing.B) {
	r, _ := New[int](1000, xrand.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Offer(i)
	}
}
