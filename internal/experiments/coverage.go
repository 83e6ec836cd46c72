package experiments

import (
	"fmt"

	"streamop/internal/core"
	"streamop/internal/trace"
)

// The empirical CI-coverage audit: run an ESTIMATE ... WITH ERROR query
// for each sampling family over the bursty feed, compare every window's
// 95% confidence interval against the true windowed sum from a direct
// pass, and report the fraction of windows whose interval contains the
// truth. All three families sample without replacement, so the
// Poisson-approximation variance the operator reports is conservative and
// empirical coverage should sit at or above the nominal 95%.

// CoverageConfig parameterizes the audit.
type CoverageConfig struct {
	Seed       uint64
	Windows    int // number of time windows audited
	WindowSec  int // window length in seconds
	SubsetN    int // subset-sum samples per window
	ReservoirN int // reservoir slots
	PriorityK  int // priority-sampling k
}

// DefaultCoverage is the published-audit configuration (scripts/accuracy.sh).
func DefaultCoverage(seed uint64) CoverageConfig {
	return CoverageConfig{Seed: seed, Windows: 40, WindowSec: 10, SubsetN: 500, ReservoirN: 500, PriorityK: 500}
}

// QuickCoverage shrinks the audit for smoke tests and CI.
func QuickCoverage(seed uint64) CoverageConfig {
	return CoverageConfig{Seed: seed, Windows: 20, WindowSec: 4, SubsetN: 300, ReservoirN: 300, PriorityK: 300}
}

// CoverageWindow is one audited window of one family.
type CoverageWindow struct {
	Window   int     `json:"window"`
	Actual   float64 `json:"actual"`
	Estimate float64 `json:"estimate"`
	Stderr   float64 `json:"stderr"`
	CILo     float64 `json:"ci_lo"`
	CIHi     float64 `json:"ci_hi"`
	ESS      float64 `json:"ess"`
	Covered  bool    `json:"covered"`
}

// FamilyCoverage is the audit result for one sampling family.
type FamilyCoverage struct {
	Family string `json:"family"`
	Query  string `json:"query"`
	// Covered / Total is the empirical coverage of the nominal 95% CI.
	Covered  int     `json:"covered"`
	Total    int     `json:"total"`
	Coverage float64 `json:"coverage"`
	// MeanRelErr is the mean |estimate-actual|/actual across windows.
	MeanRelErr float64 `json:"mean_rel_err"`
	// MeanCIWidthRel is the mean CI width relative to the actual sum.
	MeanCIWidthRel float64 `json:"mean_ci_width_rel"`
	// MeanESS is the mean effective sample size across windows.
	MeanESS float64          `json:"mean_ess"`
	Windows []CoverageWindow `json:"windows"`
}

func coverageQueries(cfg CoverageConfig) []struct{ Family, Query string } {
	return []struct{ Family, Query string }{
		{"subset-sum", fmt.Sprintf(`
SELECT tb, ESTIMATE sum(len) WITH ERROR AS vol
FROM PKT
WHERE ssample(len, %d, 2, 10) = TRUE
GROUP BY time/%d as tb, srcIP, destIP, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`, cfg.SubsetN, cfg.WindowSec)},
		{"reservoir", fmt.Sprintf(`
SELECT tb, ESTIMATE sum(len) WITH ERROR AS vol
FROM PKT
WHERE rsample(uts, %d, 20) = TRUE
GROUP BY time/%d as tb, srcIP, destIP, uts
HAVING rsfinal_clean(uts) = TRUE
CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE
CLEANING BY rsclean_with(uts) = TRUE`, cfg.ReservoirN, cfg.WindowSec)},
		{"priority", fmt.Sprintf(`
SELECT tb, ESTIMATE sum(len) WITH ERROR AS vol
FROM PKT
WHERE psample(uts, len, %d) = TRUE
GROUP BY time/%d as tb, srcIP, uts
HAVING pskeep(uts) = TRUE
CLEANING WHEN psdo_clean(count_distinct$(*)) = TRUE
CLEANING BY pskeep(uts) = TRUE`, cfg.PriorityK, cfg.WindowSec)},
	}
}

// Coverage runs the audit and returns one entry per sampling family.
func Coverage(cfg CoverageConfig) ([]FamilyCoverage, error) {
	duration := float64(cfg.Windows * cfg.WindowSec)

	// True windowed sums from a direct pass.
	feed, err := trace.NewBursty(trace.DefaultBursty(cfg.Seed, duration))
	if err != nil {
		return nil, err
	}
	actual := make([]float64, cfg.Windows)
	copy(actual, windowSums(feed, cfg.WindowSec))

	var out []FamilyCoverage
	for _, fam := range coverageQueries(cfg) {
		fc, err := coverageRun(cfg, fam.Family, fam.Query, actual, duration)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fam.Family, err)
		}
		out = append(out, fc)
	}
	return out, nil
}

func coverageRun(cfg CoverageConfig, family, query string, actual []float64, duration float64) (FamilyCoverage, error) {
	fc := FamilyCoverage{Family: family, Query: query}
	q, err := core.Compile(query, core.Options{Seed: cfg.Seed})
	if err != nil {
		return fc, err
	}
	feed, err := trace.NewBursty(trace.DefaultBursty(cfg.Seed, duration))
	if err != nil {
		return fc, err
	}
	if err := q.RunFeed(feed); err != nil {
		return fc, err
	}
	if err := q.Flush(); err != nil {
		return fc, err
	}

	// Estimator columns are window-scoped: every row of a window carries
	// the same five values, so the first row per window suffices. Output
	// layout: tb, vol, vol_stderr, vol_ci_lo, vol_ci_hi, vol_ess.
	seen := make([]bool, len(actual))
	wins := make([]CoverageWindow, len(actual))
	for _, row := range q.Collected {
		w := int(row.Values[0].AsInt())
		if w >= len(actual) || seen[w] {
			continue
		}
		seen[w] = true
		wins[w] = CoverageWindow{
			Window:   w,
			Actual:   actual[w],
			Estimate: row.Values[1].AsFloat(),
			Stderr:   row.Values[2].AsFloat(),
			CILo:     row.Values[3].AsFloat(),
			CIHi:     row.Values[4].AsFloat(),
			ESS:      row.Values[5].AsFloat(),
		}
	}
	for w := range wins {
		if !seen[w] {
			// A window with traffic but no output is an estimator miss.
			wins[w] = CoverageWindow{Window: w, Actual: actual[w]}
		}
		cw := &wins[w]
		cw.Covered = seen[w] && cw.CILo <= cw.Actual && cw.Actual <= cw.CIHi
		fc.Total++
		if cw.Covered {
			fc.Covered++
		}
		if cw.Actual > 0 {
			fc.MeanRelErr += relErr(cw.Estimate, cw.Actual)
			fc.MeanCIWidthRel += (cw.CIHi - cw.CILo) / cw.Actual
		}
		fc.MeanESS += cw.ESS
	}
	fc.Windows = wins
	if fc.Total > 0 {
		fc.Coverage = float64(fc.Covered) / float64(fc.Total)
		fc.MeanRelErr /= float64(fc.Total)
		fc.MeanCIWidthRel /= float64(fc.Total)
		fc.MeanESS /= float64(fc.Total)
	}
	return fc, nil
}
