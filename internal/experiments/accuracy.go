// Package experiments regenerates every figure of the paper's evaluation
// (§7) on the synthetic feeds, plus the ablations DESIGN.md calls out.
// Each experiment returns typed data series; cmd/experiments formats them
// and bench_test.go wraps them in testing.B benchmarks.
package experiments

import (
	"fmt"

	"streamop/internal/core"
	"streamop/internal/trace"
	"streamop/internal/tuple"
)

// subsetSumQuery builds the dynamic subset-sum sampling query of §6.1 with
// explicit parameters (N, theta, relax factor).
func subsetSumQuery(windowSec int, n int, theta, relax float64) string {
	return fmt.Sprintf(`
SELECT tb, uts, srcIP, destIP, UMAX(sum(len), ssthreshold()) AS adjlen
FROM PKT
WHERE ssample(len, %d, %g, %g) = TRUE
GROUP BY time/%d as tb, srcIP, destIP, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`, n, theta, relax, windowSec)
}

// AccuracyConfig parameterizes the Figure 2/3/4 run.
type AccuracyConfig struct {
	Seed      uint64
	Windows   int // number of time windows (the paper plots ~40)
	WindowSec int // window length in seconds (the paper uses 20)
	N         int // samples per period (the paper uses 1000)
	Theta     float64
	RelaxF    float64 // f of the relaxed variant (the paper uses 10)
}

// DefaultAccuracy mirrors the paper's §7.1 setup.
func DefaultAccuracy(seed uint64) AccuracyConfig {
	return AccuracyConfig{Seed: seed, Windows: 40, WindowSec: 20, N: 1000, Theta: 2, RelaxF: 10}
}

// AccuracyPoint is one time window of the Figure 2/3/4 series.
type AccuracyPoint struct {
	Window int
	// Actual is the true sum of packet lengths in the window (Figure 2's
	// "actual" line).
	Actual float64
	// EstRelaxed and EstNonrelaxed are the subset-sum estimates
	// (Figure 2's "estimated" lines).
	EstRelaxed, EstNonrelaxed float64
	// SamplesRelaxed / SamplesNonrelaxed are output sample counts
	// (Figure 3).
	SamplesRelaxed, SamplesNonrelaxed int
	// CleaningsRelaxed / CleaningsNonrelaxed count cleaning phases
	// (Figure 4).
	CleaningsRelaxed, CleaningsNonrelaxed int
}

// Accuracy runs the relaxed and non-relaxed dynamic subset-sum sampling
// queries over the same bursty feed and reports per-window actual vs
// estimated sums, sample counts and cleaning phases (Figures 2, 3, 4).
func Accuracy(cfg AccuracyConfig) ([]AccuracyPoint, error) {
	duration := float64(cfg.Windows * cfg.WindowSec)
	points := make([]AccuracyPoint, cfg.Windows)
	for i := range points {
		points[i].Window = i
	}

	// Actual sums from a direct pass.
	feed, err := trace.NewBursty(trace.DefaultBursty(cfg.Seed, duration))
	if err != nil {
		return nil, err
	}
	for {
		p, ok := feed.Next()
		if !ok {
			break
		}
		w := int(p.Time / 1e9 / uint64(cfg.WindowSec))
		if w < len(points) {
			points[w].Actual += float64(p.Len)
		}
	}

	run := func(relax float64, est *func(i int) *float64, samples func(i int) *int, cleanings func(i int) *int) error {
		q, err := core.Compile(subsetSumQuery(cfg.WindowSec, cfg.N, cfg.Theta, relax), core.Options{Seed: cfg.Seed})
		if err != nil {
			return err
		}
		feed, err := trace.NewBursty(trace.DefaultBursty(cfg.Seed, duration))
		if err != nil {
			return err
		}
		prevWindow := -1
		var prevCleanings, prevCreated, prevEvicted int64
		live := make([]int64, len(points)) // groups alive at each flush
		record := func(w int) {
			s := q.Stats()
			if w >= 0 && w < len(points) {
				*cleanings(w) += int(s.Cleanings - prevCleanings)
				live[w] = (s.GroupsCreated - prevCreated) - (s.GroupsEvicted - prevEvicted)
			}
			prevCleanings = s.Cleanings
			prevCreated = s.GroupsCreated
			prevEvicted = s.GroupsEvicted
		}
		// A window's run of packets goes in through ProcessPackets a
		// batch at a time, and no batch spans two windows, so the Stats
		// read between windows is exactly the window's.
		run := make([]trace.Packet, 0, tuple.DefaultBatchRows)
		for {
			p, ok := feed.Next()
			w := int(p.Time / 1e9 / uint64(cfg.WindowSec))
			if !ok || w != prevWindow || len(run) == cap(run) {
				if err := q.ProcessPackets(run); err != nil {
					return err
				}
				if run = run[:0]; !ok {
					break
				}
				if w != prevWindow {
					record(prevWindow)
					prevWindow = w
				}
			}
			run = append(run, p)
		}
		if err := q.Flush(); err != nil {
			return err
		}
		record(prevWindow)
		for _, row := range q.Collected {
			w := int(row.Values[0].AsInt())
			if w >= len(points) {
				continue
			}
			*(*est)(w) += row.Values[4].AsFloat()
			*samples(w)++
		}
		// The end-of-window subsample counts as a cleaning phase
		// (the paper's Figure 4 accounting): it ran whenever more
		// groups were alive at the flush than were output.
		for w := range points {
			if live[w] > int64(*samples(w)) {
				*cleanings(w)++
			}
		}
		return nil
	}

	estR := func(i int) *float64 { return &points[i].EstRelaxed }
	if err := run(cfg.RelaxF, &estR,
		func(i int) *int { return &points[i].SamplesRelaxed },
		func(i int) *int { return &points[i].CleaningsRelaxed }); err != nil {
		return nil, err
	}
	estN := func(i int) *float64 { return &points[i].EstNonrelaxed }
	if err := run(1, &estN,
		func(i int) *int { return &points[i].SamplesNonrelaxed },
		func(i int) *int { return &points[i].CleaningsNonrelaxed }); err != nil {
		return nil, err
	}
	return points, nil
}

// AccuracySummary aggregates an Accuracy series for reporting.
type AccuracySummary struct {
	N                         int
	MeanRelErrRelaxed         float64
	MeanRelErrNonrelaxed      float64
	MeanSamplesRelaxed        float64
	MeanSamplesNonrelaxed     float64
	SteadyCleaningsRelaxed    float64 // mean cleanings/window after warmup
	SteadyCleaningsNonrelaxed float64
	UnderSampledWindowsNon    int // windows where non-relaxed fell below N/2
}

// Summarize reduces an Accuracy series to headline numbers (skipping the
// first two warmup windows, as the paper does when reading Figure 4).
func Summarize(points []AccuracyPoint, n int) AccuracySummary {
	s := AccuracySummary{N: n}
	var cnt, warm float64
	for i, p := range points {
		if p.Actual <= 0 {
			continue
		}
		cnt++
		s.MeanRelErrRelaxed += relErr(p.EstRelaxed, p.Actual)
		s.MeanRelErrNonrelaxed += relErr(p.EstNonrelaxed, p.Actual)
		s.MeanSamplesRelaxed += float64(p.SamplesRelaxed)
		s.MeanSamplesNonrelaxed += float64(p.SamplesNonrelaxed)
		if p.SamplesNonrelaxed < n/2 {
			s.UnderSampledWindowsNon++
		}
		if i >= 2 {
			warm++
			s.SteadyCleaningsRelaxed += float64(p.CleaningsRelaxed)
			s.SteadyCleaningsNonrelaxed += float64(p.CleaningsNonrelaxed)
		}
	}
	if cnt > 0 {
		s.MeanRelErrRelaxed /= cnt
		s.MeanRelErrNonrelaxed /= cnt
		s.MeanSamplesRelaxed /= cnt
		s.MeanSamplesNonrelaxed /= cnt
	}
	if warm > 0 {
		s.SteadyCleaningsRelaxed /= warm
		s.SteadyCleaningsNonrelaxed /= warm
	}
	return s
}

func relErr(est, actual float64) float64 {
	if actual == 0 {
		return 0
	}
	e := (est - actual) / actual
	if e < 0 {
		return -e
	}
	return e
}
