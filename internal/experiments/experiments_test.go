package experiments

import (
	"fmt"
	"testing"
)

// eventually retries a wall-clock-sensitive check a few times: these
// assertions compare node timings and can flake when the host is briefly
// loaded. A check that fails every attempt is a real regression.
func eventually(t *testing.T, attempts int, f func() error) {
	t.Helper()
	var err error
	for i := 0; i < attempts; i++ {
		if err = f(); err == nil {
			return
		}
		t.Logf("attempt %d: %v", i+1, err)
	}
	t.Error(err)
}

func TestAccuracyReproducesFigures234(t *testing.T) {
	cfg := DefaultAccuracy(42)
	cfg.Windows = 16 // enough to include two load collapses
	pts, err := Accuracy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 16 {
		t.Fatalf("points = %d", len(pts))
	}
	s := Summarize(pts, cfg.N)

	// Figure 2: the relaxed estimates track the actual sums much more
	// closely than the non-relaxed ones.
	if s.MeanRelErrRelaxed > 0.10 {
		t.Errorf("relaxed mean rel err = %v, want < 0.10", s.MeanRelErrRelaxed)
	}
	if s.MeanRelErrNonrelaxed < 2*s.MeanRelErrRelaxed {
		t.Errorf("non-relaxed err %v not clearly worse than relaxed %v",
			s.MeanRelErrNonrelaxed, s.MeanRelErrRelaxed)
	}

	// Figure 3: non-relaxed frequently under-samples after collapses.
	if s.UnderSampledWindowsNon == 0 {
		t.Error("non-relaxed never under-sampled; bursty feed too tame")
	}
	if s.MeanSamplesRelaxed < 0.8*float64(cfg.N) {
		t.Errorf("relaxed mean samples = %v, want near N", s.MeanSamplesRelaxed)
	}

	// Figure 4: relaxed triggers more cleaning phases, but only a few.
	if s.SteadyCleaningsRelaxed <= s.SteadyCleaningsNonrelaxed {
		t.Errorf("relaxed cleanings %v not above non-relaxed %v",
			s.SteadyCleaningsRelaxed, s.SteadyCleaningsNonrelaxed)
	}
	if s.SteadyCleaningsRelaxed > 20 {
		t.Errorf("relaxed cleanings/window = %v, implausibly many", s.SteadyCleaningsRelaxed)
	}
}

func TestCPUUsageShape(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock CPU ordering is not meaningful under the race detector")
	}
	cfg := DefaultCPU(7)
	cfg.SampleSizes = []int{100, 1000}
	eventually(t, 3, func() error {
		pts, err := CPUUsage(cfg)
		if err != nil {
			return err
		}
		if len(pts) != 2 {
			return fmt.Errorf("points = %d", len(pts))
		}
		for _, p := range pts {
			if p.Relaxed <= 0 || p.Nonrelaxed <= 0 || p.BasicSS <= 0 {
				return fmt.Errorf("non-positive CPU at N=%d: %+v", p.Samples, p)
			}
			// Figure 5's ordering: the full sampling operator costs
			// more than the bare selection UDF, but the overhead is
			// bounded (the paper reports 3-5 percentage points; allow
			// generous slack for wall-clock noise).
			if p.Relaxed < p.BasicSS*0.8 {
				return fmt.Errorf("N=%d: relaxed operator (%v) cheaper than basic UDF (%v)",
					p.Samples, p.Relaxed, p.BasicSS)
			}
			if p.Relaxed > p.BasicSS*20 {
				return fmt.Errorf("N=%d: operator overhead implausible: %v vs %v",
					p.Samples, p.Relaxed, p.BasicSS)
			}
		}
		return nil
	})
}

func TestLowLevelEffectShape(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock CPU ordering is not meaningful under the race detector")
	}
	cfg := DefaultCPU(7)
	cfg.SampleSizes = []int{100, 1000}
	var pts []LowLevelPoint
	eventually(t, 3, func() error {
		var err error
		if pts, err = LowLevelEffect(cfg); err != nil {
			return err
		}
		for _, p := range pts {
			// Figure 6's direction at the high level: the sampling node
			// fed by the basic-SS pushdown costs less than the one fed
			// every packet.
			if p.HighBasicSSSub > p.HighSelectionSub {
				return fmt.Errorf("N=%d: pushdown high CPU %v above selection-fed %v",
					p.Samples, p.HighBasicSSSub, p.HighSelectionSub)
			}
		}
		return nil
	})
	// The pushdown forwards at most a tenth of the packets, and the
	// sampling node reads what each subquery forwards: exact counts.
	for _, p := range pts {
		if p.Packets == 0 || 10*p.Forwarded > p.Packets ||
			p.HighInSelection != p.Packets || p.HighInBasicSS != p.Forwarded {
			t.Errorf("N=%d: %d packets, %d forwarded, high read %d (selection) and %d (basic-SS)",
				p.Samples, p.Packets, p.Forwarded, p.HighInSelection, p.HighInBasicSS)
		}
	}
}

func TestThetaSweepFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock CPU ordering is not meaningful under the race detector")
	}
	cfg := DefaultCPU(7)
	eventually(t, 3, func() error {
		pts, err := ThetaSweep(cfg, []float64{1.5, 2, 4}, 500)
		if err != nil {
			return err
		}
		if len(pts) != 3 {
			return fmt.Errorf("points = %d", len(pts))
		}
		// Smaller theta means more frequent cleaning.
		if pts[0].Cleanings < pts[2].Cleanings {
			return fmt.Errorf("cleanings not decreasing in theta: %v", pts)
		}
		// §7.2: little CPU dependence on theta (allow 4x for timing
		// noise on a short run).
		min, max := pts[0].CPU, pts[0].CPU
		for _, p := range pts {
			if p.CPU < min {
				min = p.CPU
			}
			if p.CPU > max {
				max = p.CPU
			}
		}
		if max > 4*min {
			return fmt.Errorf("CPU varies too much with theta: min %v max %v", min, max)
		}
		return nil
	})
}

func TestDDoSScenario(t *testing.T) {
	cfg := DefaultDDoS(3)
	cfg.DurationSec = 9
	res, err := DDoS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.NaiveFailed {
		t.Error("naive pipeline survived the flood")
	}
	if res.IntegratedPeak > res.Bound {
		t.Errorf("integrated table peaked at %d > bound %d", res.IntegratedPeak, res.Bound)
	}
	if res.SampledFlows == 0 || res.SampledFlows > cfg.TargetSize {
		t.Errorf("sampled flows = %d", res.SampledFlows)
	}
	if res.VolumeRelErr > 0.3 {
		t.Errorf("volume estimate error = %v", res.VolumeRelErr)
	}
}

func TestOverheadAblation(t *testing.T) {
	res, err := Overhead(5, 1, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets == 0 {
		t.Fatal("no packets")
	}
	if res.Factor < 1 {
		t.Logf("operator faster than direct (%v); timing noise", res.Factor)
	}
	if res.Factor > 200 {
		t.Errorf("operator overhead factor = %v, implausible", res.Factor)
	}
	if res.EstimateDelta > 0.25 {
		t.Errorf("operator and direct estimates diverge: %v", res.EstimateDelta)
	}
}

func TestProfileAblation(t *testing.T) {
	res, err := ProfileAblation(5, 1, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets == 0 {
		t.Fatal("no packets")
	}
	if len(res.Stages) == 0 {
		t.Fatal("no stage attribution")
	}
	if res.Stages[0].SelfNS <= 0 {
		t.Errorf("top stage %q has no attributed time", res.Stages[0].Stage)
	}
	for i := 1; i < len(res.Stages); i++ {
		if res.Stages[i].SelfNS > res.Stages[i-1].SelfNS {
			t.Errorf("stages not sorted by cost: %q before %q", res.Stages[i-1].Stage, res.Stages[i].Stage)
		}
	}
	var sum float64
	for _, s := range res.Stages {
		sum += s.SelfNS
	}
	if relErr(sum, res.AttributedNS) > 1e-6 {
		t.Errorf("stage costs sum to %v, report says %v", sum, res.AttributedNS)
	}
}

// TestProfileAttributionCoverage is the acceptance check: on the ablation
// workload the per-stage self-times sum to within 10% of the run's
// measured wall time, in one try. The stage clocks are consecutive
// readings that tile the run, so a stall (GC pause, descheduling, the race
// detector's slowdown) lands in wall time and in the stage it interrupted
// alike; what the band allows for is the loop around the clocked calls.
func TestProfileAttributionCoverage(t *testing.T) {
	res, err := ProfileAblation(5, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("attributed %.1fms of %.1fms wall (coverage %.3f)",
		res.AttributedNS/1e6, float64(res.WallNS)/1e6, res.Coverage)
	if res.Coverage < 0.9 || res.Coverage > 1.1 {
		t.Errorf("attribution coverage %.3f outside [0.9, 1.1]", res.Coverage)
	}
}

func TestRelaxSweep(t *testing.T) {
	pts, err := RelaxSweep(9, []float64{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[1].MeanRelErr > pts[0].MeanRelErr {
		t.Errorf("f=10 err %v above f=1 err %v", pts[1].MeanRelErr, pts[0].MeanRelErr)
	}
}

func TestHHPushAblation(t *testing.T) {
	res, err := HHPush(13, 65)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HeavyFoundSelection || !res.HeavyFoundPartial {
		t.Errorf("heavy source lost: selection=%v partial=%v",
			res.HeavyFoundSelection, res.HeavyFoundPartial)
	}
	// The partial table forwards per-group partial rows instead of every
	// packet. With only 256 slots against thousands of Zipf sources the
	// table thrashes, so the reduction is bounded by key locality; it
	// must still be a clear (>= 2x) win.
	if res.PartialForwarded*2 > res.SelectionForwarded {
		t.Errorf("partial forwarded %d of selection's %d; expected >= 2x reduction",
			res.PartialForwarded, res.SelectionForwarded)
	}
	if res.Evictions == 0 {
		t.Error("256-slot table saw no collisions on a Zipf source pool")
	}
	// Both configurations run the heavy-hitter node well below 1% CPU,
	// where wall-clock ordering is noise; the robust claims are the
	// forwarding reduction above and correctness. CPU values must merely
	// be sane.
	if res.HighCPUSelection <= 0 || res.HighCPUPartial <= 0 {
		t.Errorf("missing CPU accounting: %v / %v", res.HighCPUSelection, res.HighCPUPartial)
	}
}

func TestShardSweep(t *testing.T) {
	res, err := Shard(19, 1, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets == 0 || res.Groups == 0 {
		t.Fatalf("empty sweep: %+v", res)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		// Exactness is the experiment's core claim: every shard count
		// must reproduce the sequential aggregates bit for bit.
		if !p.Exact {
			t.Errorf("shards=%d: parallel output diverged from Run", p.Shards)
		}
		if p.PktsPerSec <= 0 || p.WallMS <= 0 {
			t.Errorf("shards=%d: degenerate timing %+v", p.Shards, p)
		}
	}
	if res.Points[0].Speedup != 1.0 {
		t.Errorf("first point speedup = %v, want 1.0 (self-relative)", res.Points[0].Speedup)
	}
}

func TestCascadeTeaser(t *testing.T) {
	// The conclusion's teaser quantified: a reservoir of 50 over a
	// subset-sum sample of 1000 estimates the window totals, with
	// somewhat more error than subset-sum at 50 directly (the inner
	// adjusted weights are near-constant, so uniform subsampling is
	// reasonable), and exactly <= 50 final samples per window.
	res, err := Cascade(17, 7.9, 2, 1000, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows < 3 {
		t.Fatalf("windows = %d", res.Windows)
	}
	if res.MeanFinalSamples > 50 {
		t.Errorf("cascade final samples = %v > k", res.MeanFinalSamples)
	}
	if res.MeanRelErrCascade > 0.35 {
		t.Errorf("cascade error = %v", res.MeanRelErrCascade)
	}
	if res.MeanRelErrDirect > 0.35 {
		t.Errorf("direct error = %v", res.MeanRelErrDirect)
	}
}

// TestCascadeDeterministic: Cascade is a function of its seed, down to the
// last bit of each mean (a sum taken in map order would differ by an ulp
// from run to run).
func TestCascadeDeterministic(t *testing.T) {
	first, err := Cascade(42, 8, 2, 1000, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 16; i++ {
		res, err := Cascade(42, 8, 2, 1000, 50)
		if err != nil {
			t.Fatal(err)
		}
		if res != first {
			t.Fatalf("call %d: %+v, first call %+v", i, res, first)
		}
	}
}
