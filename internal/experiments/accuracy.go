// Package experiments regenerates every figure of the paper's evaluation
// (§7) on the synthetic feeds, plus the ablations DESIGN.md calls out.
// Each experiment returns typed data series; cmd/experiments formats them
// and bench_test.go wraps them in testing.B benchmarks.
package experiments

import (
	"streamop/internal/core"
	"streamop/internal/trace"
	"streamop/internal/tuple"
)

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
	for w, sum := range windowSums(feed, cfg.WindowSec) {
		if w < len(points) {
			points[w].Actual = sum
		}
	}

	// run fills one variant's fields of every point, which lane picks.
	run := func(relax float64, lane func(p *AccuracyPoint) (est *float64, samples, cleanings *int)) error {
		q, err := core.Compile(highSSQuery("PKT", cfg.WindowSec, cfg.N, cfg.Theta, relax), core.Options{Seed: cfg.Seed})
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
				_, _, cleanings := lane(&points[w])
				*cleanings += int(s.Cleanings - prevCleanings)
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
			est, samples, _ := lane(&points[w])
			*est += row.Values[4].AsFloat()
			*samples++
		}
		// The end-of-window subsample counts as a cleaning phase
		// (the paper's Figure 4 accounting): it ran whenever more
		// groups were alive at the flush than were output.
		for w := range points {
			if _, samples, cleanings := lane(&points[w]); live[w] > int64(*samples) {
				*cleanings++
			}
		}
		return nil
	}

	if err := run(cfg.RelaxF, func(p *AccuracyPoint) (*float64, *int, *int) {
		return &p.EstRelaxed, &p.SamplesRelaxed, &p.CleaningsRelaxed
	}); err != nil {
		return nil, err
	}
	if err := run(1, func(p *AccuracyPoint) (*float64, *int, *int) {
		return &p.EstNonrelaxed, &p.SamplesNonrelaxed, &p.CleaningsNonrelaxed
	}); err != nil {
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

// windowSums is the ground truth the estimates are scored against: the
// feed's packet lengths summed per window of windowSec seconds, indexed by
// window.
func windowSums(feed trace.Feed, windowSec int) []float64 {
	var sums []float64
	for {
		p, ok := feed.Next()
		if !ok {
			return sums
		}
		w := int(p.Time / 1e9 / uint64(windowSec))
		for len(sums) <= w {
			sums = append(sums, 0)
		}
		sums[w] += float64(p.Len)
	}
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
