package experiments

import (
	"fmt"

	"streamop/internal/trace"
)

// passthroughQuery is the low-level selection that forwards every packet's
// relevant fields to the high level (the expensive configuration of §7.2).
const passthroughQuery = `SELECT time, srcIP, destIP, len, uts FROM PKT`

// basicSSLowQuery returns the low-level basic subset-sum pushdown of
// Figure 6: sampling at threshold z before forwarding.
func basicSSLowQuery(z float64) string {
	return fmt.Sprintf(`SELECT time, srcIP, destIP, len, uts FROM PKT WHERE bssample(len, %g) = TRUE`, z)
}

// highSSQuery is the dynamic subset-sum query analyzed against a low-level
// node's output stream (named low).
func highSSQuery(stream string, windowSec, n int, theta, relax float64) string {
	return fmt.Sprintf(`
SELECT tb, uts, srcIP, destIP, UMAX(sum(len), ssthreshold()) AS adjlen
FROM %s
WHERE ssample(len, %d, %g, %g) = TRUE
GROUP BY time/%d as tb, srcIP, destIP, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`, stream, n, theta, relax, windowSec)
}

// basicSSHighQuery is basic subset-sum sampling as a UDF in a selection
// operator — Figure 5's comparison point.
func basicSSHighQuery(stream string, z float64) string {
	return fmt.Sprintf(`SELECT uts, srcIP, destIP, UMAX(len, %g) FROM %s WHERE bssample(len, %g) = TRUE`, z, stream, z)
}

// CPUConfig parameterizes the CPU figures: Figs. 5 and 6 and the θ sweep.
type CPUConfig struct {
	Seed        uint64
	DurationSec float64 // simulated capture length
	WindowSec   int
	Rate        float64 // packets/sec (the paper's feed runs 100k)
	SampleSizes []int   // samples per period (the paper plots 100..10000)
}

// DefaultCPU mirrors §7.2 at the paper's 20-s period: the steady 100k pps
// feed over three windows, three sample sizes, queries at θ = 2 and f = 10.
func DefaultCPU(seed uint64) CPUConfig {
	return CPUConfig{
		Seed: seed, DurationSec: 60, WindowSec: 20, Rate: 100000,
		SampleSizes: []int{100, 1000, 10000},
	}
}

// meanPacketLen is the expected packet size of the synthetic feeds
// (0.5*40 + 0.1*~700 + 0.4*1500), used to precompute basic-SS thresholds.
const meanPacketLen = 690

// zFor returns the basic subset-sum threshold that yields about n samples
// per window at the given rate.
func zFor(rate float64, windowSec, n int) float64 {
	return rate * meanPacketLen * float64(windowSec) / float64(n)
}

// CPUPoint is one x-position of Figure 5: CPU fraction consumed by each
// query variant at a given samples-per-period setting.
type CPUPoint struct {
	Samples int
	// Relaxed and Nonrelaxed are the dynamic subset-sum sampling
	// operator's CPU fractions.
	Relaxed, Nonrelaxed float64
	// BasicSS is the selection-operator UDF comparison point.
	BasicSS float64
}

// runTwoLevel runs lowSrc -> highSrc (node "high") over a fresh steady
// feed.
func runTwoLevel(cfg CPUConfig, lowSrc, highSrc string) (*chain, error) {
	c, err := buildChain(1<<14, cfg.Seed, lowSrc, 0, stage{"high", highSrc})
	if err != nil {
		return nil, err
	}
	sc := trace.DefaultSteady(cfg.Seed, cfg.DurationSec)
	sc.Rate = cfg.Rate
	feed, err := trace.NewSteady(sc)
	if err != nil {
		return nil, err
	}
	return c, c.Run(feed)
}

// CPUUsage regenerates Figure 5: the CPU cost of relaxed and non-relaxed
// dynamic subset-sum sampling (via the sampling operator) and of basic
// subset-sum sampling (as a selection UDF), per samples-per-period.
func CPUUsage(cfg CPUConfig) ([]CPUPoint, error) {
	var out []CPUPoint
	for _, n := range cfg.SampleSizes {
		pt := CPUPoint{Samples: n}
		for _, run := range []struct {
			cpu  *float64
			high string
		}{
			{&pt.Relaxed, highSSQuery("low", cfg.WindowSec, n, 2, 10)},
			{&pt.Nonrelaxed, highSSQuery("low", cfg.WindowSec, n, 2, 1)},
			{&pt.BasicSS, basicSSHighQuery("low", zFor(cfg.Rate, cfg.WindowSec, n))},
		} {
			c, err := runTwoLevel(cfg, passthroughQuery, run.high)
			if err != nil {
				return nil, err
			}
			*run.cpu = c.Utilization(c.high[0])
		}
		out = append(out, pt)
	}
	return out, nil
}

// LowLevelPoint is one x-position of Figure 6: the high-level dynamic
// subset-sum CPU under a plain selection subquery vs a basic-SS pushdown
// subquery, with the low-level costs and the rows on the hop alongside.
type LowLevelPoint struct {
	Samples int
	// HighSelectionSub / HighBasicSSSub are the sampling node's CPU
	// fractions with each low-level query type (Figure 6's two lines).
	HighSelectionSub, HighBasicSSSub float64
	// LowSelection / LowBasicSS are the corresponding low-level costs
	// (the paper reports ~60% dropping to ~4%).
	LowSelection, LowBasicSS float64
	// Packets is what each low-level node read; Forwarded the rows the
	// pushdown passed on out of them. HighInSelection / HighInBasicSS are
	// the rows the sampling node read under each subquery.
	Packets, Forwarded             int64
	HighInSelection, HighInBasicSS int64
}

// LowLevelEffect regenerates Figure 6: pushing basic subset-sum sampling
// (threshold 1/10th of the dynamic target) into the low-level query.
func LowLevelEffect(cfg CPUConfig) ([]LowLevelPoint, error) {
	// The pushdown threshold is 1/10th the level the dynamic algorithm
	// uses when returning 10,000 samples per interval (§7.2).
	pushZ := zFor(cfg.Rate, cfg.WindowSec, 10000) / 10
	var out []LowLevelPoint
	for _, n := range cfg.SampleSizes {
		pt := LowLevelPoint{Samples: n}
		high := highSSQuery("low", cfg.WindowSec, n, 2, 10)
		c, err := runTwoLevel(cfg, passthroughQuery, high)
		if err != nil {
			return nil, err
		}
		pt.LowSelection, pt.HighSelectionSub = c.Utilization(c.low), c.Utilization(c.high[0])
		pt.HighInSelection = c.high[0].Stats().TuplesIn
		if c, err = runTwoLevel(cfg, basicSSLowQuery(pushZ), high); err != nil {
			return nil, err
		}
		pt.LowBasicSS, pt.HighBasicSSSub = c.Utilization(c.low), c.Utilization(c.high[0])
		low := c.low.Stats()
		pt.Packets, pt.Forwarded = low.TuplesIn, low.TuplesOut
		pt.HighInBasicSS = c.high[0].Stats().TuplesIn
		out = append(out, pt)
	}
	return out, nil
}

// ThetaPoint is one cleaning-trigger setting of the §7.2 theta study.
type ThetaPoint struct {
	Theta     float64
	CPU       float64
	Cleanings int64
}

// ThetaSweep reproduces the §7.2 observation that CPU load depends little
// on the cleaning trigger theta.
func ThetaSweep(cfg CPUConfig, thetas []float64, n int) ([]ThetaPoint, error) {
	var out []ThetaPoint
	for _, th := range thetas {
		c, err := runTwoLevel(cfg, passthroughQuery, highSSQuery("low", cfg.WindowSec, n, th, 10))
		if err != nil {
			return nil, err
		}
		high := c.high[0]
		out = append(out, ThetaPoint{Theta: th, CPU: c.Utilization(high), Cleanings: high.Stats().Operator.Cleanings})
	}
	return out, nil
}
