// Package subsetsum implements subset-sum (threshold) sampling of weighted
// stream items, after Duffield, Lund and Thorup ("Learn more, sample less",
// SIGCOMM IMW 2001) as adapted by Johnson, Muthukrishnan and Rozenbaum for
// the stream sampling operator.
//
// Given a threshold z, every item with weight > z is sampled; smaller items
// feed a running counter and one small item is emitted — with its weight
// adjusted up to z — each time the accumulated small mass exceeds z. The
// sum of adjusted weights over the sample estimates the total weight of any
// subset, with variance bounded by a factor of z.
//
// Three variants are provided:
//
//   - Basic: fixed threshold, arbitrary sample size (§4.4 of the paper).
//   - Dynamic: targets a fixed sample size N by triggering cleaning phases
//     that raise z and subsample (the "aggressive" adjustment).
//   - Relaxed: the paper's §7.1 fix — the threshold carried into a new time
//     window is divided by a relaxation factor f, so that a sharp load drop
//     no longer starves the sample; cleaning phases adapt z back up.
//     Relaxed with f=1 is exactly the non-relaxed dynamic algorithm.
//
// All of them, and every other subset-sum sampler in the repository, run
// one threshold control, Threshold, which holds the §4.4 counter rule.
package subsetsum

import (
	"fmt"
	"math"
)

// Sample is one retained item.
type Sample[T any] struct {
	Payload T
	// Weight is the item's original weight.
	Weight float64
	// Adj is the adjusted weight max(Weight, z...) accumulated through
	// every threshold the sample survived; summing Adj over the sample
	// estimates subset sums.
	Adj float64
}

// Estimate sums the adjusted weights of a sample set: the subset-sum
// estimator for the whole window (filter first to estimate a subset).
func Estimate[T any](samples []Sample[T]) float64 {
	var sum float64
	for i := range samples {
		sum += samples[i].Adj
	}
	return sum
}

// Threshold is the threshold control of §4.4 that every subset-sum
// sampler in the repository runs: Basic and Dynamic here, the operator's
// ss* and bssample states, and the integrated flow sampler. It holds the
// threshold and the counters; the caller holds the samples. Its fields are
// exported so a checkpoint codec can store them.
type Threshold struct {
	Z     float64 // current threshold
	ZPrev float64 // threshold before the active cleaning pass
	// Counter is the small-mass admission counter; CleanCounter is the
	// active cleaning pass's.
	Counter, CleanCounter float64
	Big                   int // samples heavier than Z
	Cleanings             int // cleaning phases this window
}

// take is §4.4's counter rule for an item of weight w <= Z: w joins the
// small mass in ctr, and each time ctr exceeds Z the item is taken and Z
// is paid out of ctr.
func (t *Threshold) take(ctr *float64, w float64) bool {
	*ctr += w
	if *ctr > t.Z {
		*ctr -= t.Z
		return true
	}
	return false
}

// Admit reports whether an item of weight w enters the sample: always when
// w exceeds Z (counted in Big), otherwise by the counter rule. A kept
// item's adjusted weight is max(w, Z).
func (t *Threshold) Admit(w float64) bool {
	if w > t.Z {
		t.Big++
		return true
	}
	return t.take(&t.Counter, w)
}

// BeginClean starts a cleaning phase over size retained samples with
// target m: Z rises by AdjustZ, the old threshold becomes ZPrev, and the
// pass's counter and Big restart (CleanKeep recounts Big).
func (t *Threshold) BeginClean(size, m int) {
	t.Cleanings++
	t.ZPrev = t.Z
	t.Z = AdjustZ(t.Z, size, m, t.Big)
	t.CleanCounter = 0
	t.Big = 0
}

// CleanKeep reports whether a retained sample of adjusted weight w
// survives the active cleaning pass: basic subset-sum sampling at the new
// Z, with a weight below ZPrev promoted to ZPrev (§6.5). A kept sample's
// adjusted weight becomes max(w, ZPrev, Z).
func (t *Threshold) CleanKeep(w float64) bool {
	if w < t.ZPrev {
		w = t.ZPrev
	}
	if w > t.Z {
		t.Big++
		return true
	}
	return t.take(&t.CleanCounter, w)
}

// Carry returns the threshold control of the next window: Z/f with every
// counter cleared (§7.1's relaxation; f = 1 is the non-relaxed
// algorithm), or z0 when the division leaves no positive threshold.
func (t *Threshold) Carry(f, z0 float64) Threshold {
	z := t.Z / f
	if z <= 0 {
		z = z0
	}
	return Threshold{Z: z}
}

// Basic is the fixed-threshold algorithm. The zero value is not usable;
// construct with NewBasic.
type Basic[T any] struct {
	th      Threshold
	samples []Sample[T]
}

// NewBasic returns a basic subset-sum sampler with threshold z > 0.
func NewBasic[T any](z float64) (*Basic[T], error) {
	if z <= 0 || math.IsNaN(z) || math.IsInf(z, 0) {
		return nil, fmt.Errorf("subsetsum: threshold must be positive and finite, got %v", z)
	}
	return &Basic[T]{th: Threshold{Z: z}}, nil
}

// Offer presents one item. It reports whether the item entered the sample.
func (b *Basic[T]) Offer(weight float64, payload T) bool {
	pass, adj := b.Decide(weight)
	if pass {
		b.samples = append(b.samples, Sample[T]{Payload: payload, Weight: weight, Adj: adj})
	}
	return pass
}

// Decide applies the basic predicate without retaining the sample: the
// low-level pushdown form used as a selection UDF. It reports whether the
// item should pass and the adjusted weight to assign if it does.
func (b *Basic[T]) Decide(weight float64) (pass bool, adj float64) {
	if !b.th.Admit(weight) {
		return false, 0
	}
	return true, max(weight, b.th.Z)
}

// Samples returns the retained samples. The caller must not modify the
// slice between Offer calls.
func (b *Basic[T]) Samples() []Sample[T] { return b.samples }

// Z returns the threshold.
func (b *Basic[T]) Z() float64 { return b.th.Z }

// Reset discards all samples and counter state, keeping the threshold.
func (b *Basic[T]) Reset() {
	b.samples = b.samples[:0]
	b.th = Threshold{Z: b.th.Z}
}

// Config parameterizes the dynamic algorithm.
type Config struct {
	// TargetSize is N, the desired number of samples per window.
	TargetSize int
	// InitialZ is the threshold used in the first window.
	InitialZ float64
	// Theta triggers a cleaning phase when the sample grows beyond
	// Theta*TargetSize. The paper uses 2. Must be > 1.
	Theta float64
	// RelaxFactor is f: the threshold carried into a new window is z/f.
	// 1 reproduces the non-relaxed algorithm; the paper's fix uses 10.
	RelaxFactor float64
}

// MaxFinalCleanings bounds the end-of-window subsampling loop of Dynamic
// and of flow.Sampler.
const MaxFinalCleanings = 64

func (c Config) validate() error {
	if c.TargetSize <= 0 {
		return fmt.Errorf("subsetsum: TargetSize must be positive, got %d", c.TargetSize)
	}
	if c.InitialZ <= 0 || math.IsNaN(c.InitialZ) || math.IsInf(c.InitialZ, 0) {
		return fmt.Errorf("subsetsum: InitialZ must be positive and finite, got %v", c.InitialZ)
	}
	if c.Theta <= 1 {
		return fmt.Errorf("subsetsum: Theta must exceed 1, got %v", c.Theta)
	}
	if c.RelaxFactor < 1 {
		return fmt.Errorf("subsetsum: RelaxFactor must be >= 1, got %v", c.RelaxFactor)
	}
	return nil
}

// Dynamic is the fixed-sample-size algorithm with threshold adaptation.
type Dynamic[T any] struct {
	cfg     Config
	th      Threshold
	samples []Sample[T]
}

// NewDynamic returns a dynamic subset-sum sampler.
func NewDynamic[T any](cfg Config) (*Dynamic[T], error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Dynamic[T]{cfg: cfg, th: Threshold{Z: cfg.InitialZ}}, nil
}

// Offer presents one item of the current window. It reports whether the
// item entered the sample (it may later be evicted by a cleaning phase).
func (d *Dynamic[T]) Offer(weight float64, payload T) bool {
	if !d.th.Admit(weight) {
		return false
	}
	d.samples = append(d.samples, Sample[T]{Payload: payload, Weight: weight, Adj: max(weight, d.th.Z)})
	if len(d.samples) > int(d.cfg.Theta*float64(d.cfg.TargetSize)) {
		d.clean()
	}
	return true
}

// clean raises the threshold with the paper's aggressive adjustment and
// re-runs basic subset-sum sampling over the retained samples at the new
// threshold; the pass's leftover small mass becomes the admission counter.
func (d *Dynamic[T]) clean() {
	d.th.BeginClean(len(d.samples), d.cfg.TargetSize)
	kept := d.samples[:0]
	for _, s := range d.samples {
		if d.th.CleanKeep(s.Adj) {
			s.Adj = max(s.Adj, d.th.ZPrev, d.th.Z)
			kept = append(kept, s)
		}
	}
	// Zero the dropped tail so evicted payloads don't pin memory.
	clear(d.samples[len(kept):])
	d.samples = kept
	d.th.Counter = d.th.CleanCounter
}

// AdjustZ implements the aggressive z-threshold adjustment of §4.4:
//
//	0 <= |S| < M : z' = z * (|S| / M)
//	|S| >= M     : z' = z * max(1, (|S|-B)/(M-B))
//
// With B >= M every target slot is already taken by a large sample, so the
// ratio is undefined; doubling z is the standard escape that keeps the
// threshold growing geometrically until large samples thin out.
func AdjustZ(z float64, s, m, b int) float64 {
	if s < m {
		if s == 0 {
			return z // no information; keep the threshold
		}
		return z * float64(s) / float64(m)
	}
	if b >= m {
		return z * 2
	}
	factor := float64(s-b) / float64(m-b)
	if factor < 1 {
		factor = 1
	}
	return z * factor
}

// EndWindow closes the current time window: it performs the final
// subsampling down to at most N samples, returns the window's sample set,
// and primes the threshold for the next window (dividing by RelaxFactor).
// The returned slice is owned by the caller.
func (d *Dynamic[T]) EndWindow() []Sample[T] {
	for i := 0; len(d.samples) > d.cfg.TargetSize && i < MaxFinalCleanings; i++ {
		d.clean()
	}
	out := make([]Sample[T], len(d.samples))
	copy(out, d.samples)

	// Prime the next window: the paper estimates next-window load as 1/f
	// of this window's, so the carried threshold is z/f. The cleaning
	// machinery readily adapts z upward if the load did not drop.
	d.th = d.th.Carry(d.cfg.RelaxFactor, d.cfg.InitialZ)
	d.samples = d.samples[:0]
	return out
}

// Z returns the current threshold.
func (d *Dynamic[T]) Z() float64 { return d.th.Z }

// Size returns the current number of retained samples.
func (d *Dynamic[T]) Size() int { return len(d.samples) }

// Cleanings returns the number of cleaning phases triggered so far in the
// current window (reset by EndWindow).
func (d *Dynamic[T]) Cleanings() int { return d.th.Cleanings }
