package experiments

import (
	"strconv"

	"streamop/internal/trace"
	"streamop/internal/tuple"
)

// CascadeResult reports the conclusion's "cascading one type of stream
// sampling inside a different type" teaser, quantified: a reservoir of
// size k drawn from the output of a dynamic subset-sum sample of size N,
// versus dynamic subset-sum at size k directly, both estimating the
// window's total bytes from k final samples.
type CascadeResult struct {
	Windows int
	// MeanRelErrCascade is the error of reservoir(k) over subset-sum(N)
	// with the scaled estimator sum(adj) * N_out/k.
	MeanRelErrCascade float64
	// MeanRelErrDirect is the error of dynamic subset-sum at size k.
	MeanRelErrDirect float64
	// MeanFinalSamples of the cascade (must be <= k).
	MeanFinalSamples float64
}

// cascadeFeed is the steady 50k pkts/sec capture every pass of Cascade
// reads.
func cascadeFeed(seed uint64, durationSec float64) (trace.Feed, error) {
	sc := trace.DefaultSteady(seed, durationSec)
	sc.Rate = 50000
	return trace.NewSteady(sc)
}

// cascadeRun runs low selection -> subset-sum(N) -> reservoir(k) and
// returns, per window, the reservoir's summed adjusted lengths, its
// sample count and the subset-sum output count (the cascade's N_out).
func cascadeRun(seed uint64, durationSec float64, windowSec, n, k int) (est map[int64]float64, count, inner map[int64]int, err error) {
	c, err := buildChain(1<<14, seed, passthroughQuery, 0,
		stage{"ss", highSSQuery("low", windowSec, n, 2, 10)},
		stage{"res", `
SELECT tb2, adjlen, uts
FROM ss
WHERE rsample(uts, ` + strconv.Itoa(k) + `, 10) = TRUE
GROUP BY tb/1 as tb2, adjlen, uts
HAVING rsfinal_clean(uts) = TRUE
CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE
CLEANING BY rsclean_with(uts) = TRUE`})
	if err != nil {
		return nil, nil, nil, err
	}
	est, count, inner = map[int64]float64{}, map[int64]int{}, map[int64]int{}
	c.high[0].Subscribe(func(row tuple.Tuple) error {
		inner[row[0].AsInt()]++
		return nil
	})
	c.high[1].Subscribe(func(row tuple.Tuple) error {
		w := row[0].AsInt()
		est[w] += row[1].AsFloat()
		count[w]++
		return nil
	})
	feed, err := cascadeFeed(seed, durationSec)
	if err != nil {
		return nil, nil, nil, err
	}
	return est, count, inner, c.Run(feed)
}

// Cascade runs the cascade and the direct small-N subset-sum over the same
// feed and reports per-window estimation error for both.
func Cascade(seed uint64, durationSec float64, windowSec, n, k int) (CascadeResult, error) {
	var res CascadeResult
	feed, err := cascadeFeed(seed, durationSec)
	if err != nil {
		return res, err
	}
	actual := windowSums(feed, windowSec)

	// Cascade: reservoir(k) over subset-sum(N); scale by N_out/k.
	cascEst, cascCnt, inner, err := cascadeRun(seed, durationSec, windowSec, n, k)
	if err != nil {
		return res, err
	}

	// Direct: subset-sum at size k.
	c, err := buildChain(1<<14, seed+1, passthroughQuery, 0, stage{"ss", highSSQuery("low", windowSec, k, 2, 10)})
	if err != nil {
		return res, err
	}
	directEst := map[int64]float64{}
	c.high[0].Subscribe(func(row tuple.Tuple) error {
		directEst[row[0].AsInt()] += row[4].AsFloat()
		return nil
	})
	if feed, err = cascadeFeed(seed, durationSec); err != nil {
		return res, err
	}
	if err := c.Run(feed); err != nil {
		return res, err
	}

	// Sum in window order: a float sum is not associative.
	for i, act := range actual {
		if act <= 0 {
			continue
		}
		w := int64(i)
		res.Windows++
		scale := 1.0
		if cascCnt[w] > 0 {
			scale = float64(inner[w]) / float64(cascCnt[w])
		}
		res.MeanRelErrCascade += relErr(cascEst[w]*scale, act)
		res.MeanRelErrDirect += relErr(directEst[w], act)
		res.MeanFinalSamples += float64(cascCnt[w])
	}
	if res.Windows > 0 {
		nWin := float64(res.Windows)
		res.MeanRelErrCascade /= nWin
		res.MeanRelErrDirect /= nWin
		res.MeanFinalSamples /= nWin
	}
	return res, nil
}
