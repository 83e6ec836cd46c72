package experiments

import (
	"runtime"
	"time"

	"streamop/internal/core"
	"streamop/internal/sample/subsetsum"
	"streamop/internal/trace"
)

// Overhead measures the genericity cost of the sampling operator: dynamic
// subset-sum sampling expressed as a query versus the hand-coded
// subsetsum.Dynamic, over the same steady feed. The operator side runs the
// columnar batch path — its deployed hot path (the engine and RunFeed both
// batch). Both sides run interleaved passes with the minimum kept (same
// transient-load damping as the bench_test.go overhead guards: a single
// pass of the hand-coded loop is under a millisecond, where one scheduler
// hiccup would swing the factor severalfold).
func Overhead(seed uint64, duration float64, n int) (OverheadResult, error) {
	var res OverheadResult
	pkts, err := steadyPackets(seed, duration)
	if err != nil {
		return res, err
	}
	res.Packets = int64(len(pkts))

	const passes = 5
	var directNS, opNS, directEst float64
	var q *core.Query
	for i := 0; i < passes; i++ {
		dns, est, err := directPass(pkts, n)
		if err != nil {
			return res, err
		}
		qi, ons, err := opPass(pkts, seed, n, false)
		if err != nil {
			return res, err
		}
		if i == 0 || dns < directNS {
			directNS = dns
		}
		if i == 0 || ons < opNS {
			opNS = ons
		}
		directEst, q = est, qi // deterministic across passes
	}
	var opEst float64
	for _, row := range q.Collected {
		opEst += row.Values[4].AsFloat()
	}

	res.OperatorNSPerPacket = opNS / float64(len(pkts))
	res.DirectNSPerPacket = directNS / float64(len(pkts))
	if directNS > 0 {
		res.Factor = opNS / directNS
	}
	res.EstimateDelta = relErr(opEst, directEst)
	return res, nil
}

// steadyPackets pre-materializes the steady feed, so feed generation is
// charged to neither side of the genericity ablation.
func steadyPackets(seed uint64, duration float64) ([]trace.Packet, error) {
	feed, err := trace.NewSteady(trace.DefaultSteady(seed, duration))
	if err != nil {
		return nil, err
	}
	return trace.Collect(feed), nil
}

// directPass runs the hand-coded subsetsum.Dynamic over pkts in 2-second
// windows and returns its wall time and the summed window estimates.
func directPass(pkts []trace.Packet, n int) (ns, est float64, err error) {
	d, err := subsetsum.NewDynamic[uint64](subsetsum.Config{
		TargetSize: n, InitialZ: 1, Theta: 2, RelaxFactor: 10,
	})
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	prevWindow := uint64(0)
	for _, p := range pkts {
		if w := p.Time / 1e9 / 2; w != prevWindow {
			est += subsetsum.Estimate(d.EndWindow())
			prevWindow = w
		}
		d.Offer(float64(p.Len), p.Time)
	}
	est += subsetsum.Estimate(d.EndWindow())
	return float64(time.Since(start).Nanoseconds()), est, nil
}

// opPass runs the same sampling as a query (2-second windows) through the
// operator's batch entry point, ProcessPackets, which the engine and
// RunFeed use, and returns the flushed query and its wall time.
func opPass(pkts []trace.Packet, seed uint64, n int, profile bool) (q *core.Query, ns float64, err error) {
	q, err = core.Compile(highSSQuery("PKT", 2, n, 2, 10), core.Options{Seed: seed, Profile: profile})
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	start := time.Now()
	if err := q.ProcessPackets(pkts); err != nil {
		return nil, 0, err
	}
	if err := q.Flush(); err != nil {
		return nil, 0, err
	}
	return q, float64(time.Since(start).Nanoseconds()), nil
}

// RelaxSweepPoint reports accuracy and cleaning cost for one relaxation
// factor — the f ablation of the relaxed fix.
type RelaxSweepPoint struct {
	F                    float64
	MeanRelErr           float64
	MeanSamples          float64
	CleaningsPerWindowSS float64
}

// RelaxSweep runs the accuracy experiment across relaxation factors.
func RelaxSweep(seed uint64, factors []float64) ([]RelaxSweepPoint, error) {
	var out []RelaxSweepPoint
	for _, f := range factors {
		cfg := DefaultAccuracy(seed)
		cfg.Windows = 12
		cfg.RelaxF = f
		pts, err := Accuracy(cfg)
		if err != nil {
			return nil, err
		}
		// The "relaxed" lane of Accuracy carries factor f.
		s := Summarize(pts, cfg.N)
		out = append(out, RelaxSweepPoint{
			F:                    f,
			MeanRelErr:           s.MeanRelErrRelaxed,
			MeanSamples:          s.MeanSamplesRelaxed,
			CleaningsPerWindowSS: s.SteadyCleaningsRelaxed,
		})
	}
	return out, nil
}
