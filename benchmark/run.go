package main

import (
	"fmt"
	"math"
	"os"

	"streamop/internal/engine"
	"streamop/internal/telemetry"
	"streamop/internal/trace"
)

// runConfig is one invocation: one workload, one seed, one process.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scale shrinks laps and run lengths. Only the smoke test sets it
	// (to 1/200); a run from the command line is always full size.
	scale float64
	// corrupt damages the reference output; the run must then fail
	// (test-only).
	corrupt  bool
	root     string // repository root (gsqd is built from it)
	buildDir string // scratch inside the checkout
	outDir   string // trace-*.json
	host     hostBlock
	spec     *benchSpec
}

// Set-up runs at least setupRepeats times, and on until it has taken
// setupBudget in all or run setupMax times — a set-up of a few tens of
// milliseconds needs more than three samples for a steady median.
// setup_s is the median.
const (
	setupRepeats = 3
	setupMax     = 15
	setupBudget  = 1.0 // seconds
)

func moreSetup(done []float64, scale float64) bool {
	if scale < 1 {
		return len(done) == 0 // the smoke test sets up once
	}
	return len(done) < setupRepeats || (len(done) < setupMax && sum(done) < setupBudget)
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func newEngine(noCollector bool) (*engine.Engine, error) {
	e, err := engine.New(ringSize)
	if err != nil {
		return nil, err
	}
	if !noCollector {
		// The deployed configuration: gsqd always attaches a collector.
		if err := e.SetCollector(telemetry.New()); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func inprocByName(name string) *inproc {
	switch name {
	case "sample_walk":
		return sampleWalk()
	case "two_level":
		return twoLevel()
	case "tenant_fanout":
		return tenantFanout()
	}
	return nil
}

// run executes one workload and returns the result to print.
func run(cfg runConfig) (*result, error) {
	if cfg.workload == "gsqd_sse" {
		return runGsqd(cfg)
	}
	w := inprocByName(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	var p *prepared
	var setups []float64
	for moreSetup(setups, cfg.scale) {
		t := now()
		var err error
		var reuse []trace.Packet
		if p != nil {
			reuse = p.lap.pkts
		}
		if p, err = setupInproc(w, cfg.seed, cfg.scale, cfg.corrupt, reuse); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, float64(now()-t)/1e9)
	}
	setupS := median(setups)
	logf("set-up %.3f s (median of %d): lap %d pkts, %d s of stream", setupS, len(setups), len(p.lap.pkts), p.lap.seconds)
	if cfg.trace {
		return tracedInproc(cfg, p)
	}
	resetPeakRSS()
	res, err := p.session(cfg.seed, cfg.seconds, nil)
	if err != nil {
		return nil, err
	}
	st, err := res.feed.stats()
	if err != nil {
		return nil, err
	}
	out := cfg.spec.newResult()
	relerr := p.verify(res, out)
	if err := backlogCheck(res.feed); err != nil {
		return nil, err
	}
	lat := deliveries(res, func(q querySpec) bool { return q.latency })
	if len(lat) == 0 {
		return nil, fmt.Errorf("no window was delivered after the warm-up lap")
	}
	p99, q, n, past := tail(lat)
	l1, lmed, l3 := quartiles(lat)
	q1, med, q3 := quartiles(st.pktsPerS)
	c1, cmed, c3 := quartiles(st.cpuPerPk)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	// Every timing is a median, reported at nominal host speed (calib.go);
	// the measured figures, their quartiles and the host's speed go to the
	// log. A paced feed's rate is its schedule and is reported as it is.
	speed := res.feed.calib.speed()
	rate := med
	if w.speedup <= 0 {
		rate = med / speed
	}
	out.set("setup_s", setupS)
	out.set("pkts_per_s", rate)
	out.set("cpu_s_per_mpkt", cmed*1e6*speed)
	out.set("deliver_ms_p50", lmed*speed)
	out.set("peak_rss_mb", rss)
	cq1, cmedMS, cq3 := quartiles(res.feed.calib.ms)
	logf("%s seed %d: %d measured laps, %d pkts in %.2f s", w.name, cfg.seed, st.laps, st.packets, st.wall)
	logf("  host speed %.3f of nominal: calibration pass median %.3f ms (q1 %.3f, q3 %.3f) over %d passes, nominal %.1f ms",
		speed, cmedMS, cq1, cq3, len(res.feed.calib.ms), calibNominalMS)
	logf("  measured pkts/s per lap: median %.0f (q1 %.0f, q3 %.0f)", med, q1, q3)
	logf("  measured cpu s/Mpkt per lap: median %.4f (q1 %.4f, q3 %.4f); %.1f %% of one core overall", cmed*1e6, c1*1e6, c3*1e6, st.cpuPct)
	logf("  measured deliver_ms over %d windows: median %.3f (q1 %.3f, q3 %.3f), p%.1f %.3f (%d beyond)",
		n, lmed, l1, l3, q*100, p99, past)
	if w.sampling {
		logf("  sample_relerr_mean %.4f", relerr)
	}
	for name, s := range res.quotaShed {
		logf("  quota shed on %s: %d rows (by design; checked as an exact count)", name, s)
	}
	return out, nil
}

// session runs the workload's session for the given wall time: a warm-up
// lap, then whole laps until the time is up.
func (p *prepared) session(seed uint64, seconds float64, rec *recorder) (*sessionResult, error) {
	w := p.w
	var start int64
	done := func(laps int) bool {
		if laps == 1 {
			start = now() // the clock starts after the warm-up lap
			return false
		}
		return float64(now()-start)/1e9 >= seconds
	}
	if w.speedup > 0 {
		// A paced run lasts as long as its schedule says: the lap count
		// is the run length (a full-size lap is one wall second).
		total := 1 + int(math.Max(1, math.Round(seconds*w.speedup/float64(p.lap.seconds))))
		done = func(laps int) bool { return laps >= total }
	}
	feed := newLoopFeed(p.lap, w.speedup, done)
	feed.calib = newCalibrator()
	if rec != nil {
		n := 0
		feed.chunk = func(s, e int64, lap int) {
			if n++; n%64 == 0 { // thin the spans: one chunk in 64
				rec.add("trace.feed_next512", s, e, -1, uint64(lap))
			}
		}
	}
	return runSession(feed, sessionOpts{
		seed: seed, speedup: w.speedup, queries: w.queries, churn: w.churn, rec: rec,
		adjSum: w.sampling,
		keep: func(tb uint64) bool {
			// Sampling output is checked on the stretch Engine.Run
			// reproduces; aggregates are checked everywhere.
			return !w.sampling || tb < p.refSeconds
		},
	})
}

// verify checks the session's output against the reference, fills in
// attempted/failed/correct, and returns the sampling error (0 for
// aggregating workloads).
func (p *prepared) verify(res *sessionResult, out *result) (relerr float64) {
	w := p.w
	out.Attempted = res.packets + res.requests
	out.Failed = res.failed
	laps := res.feed.laps
	for _, c := range res.consumers {
		var want digest
		switch {
		case w.sampling:
			want = p.runDigest
		case c.spec.name == regroupName:
			want = refDigest(refRegroup(p.tapRows), laps, p.lap.seconds)
		case c.spec.name == quotaName:
			// Which rows a token bucket admits depends on the operator's
			// emission order, so the over-quota tenant is held to exact
			// admitted and shed counts instead of a digest.
			var offered []uint64
			for l := 0; l < laps; l++ {
				offered = append(offered, p.perWindow...)
			}
			q := c.spec.quota.WithDefaults()
			admitted, shed := refQuota(offered, q.Rows, math.Max(1, q.Rows*q.BurstSec))
			out.Attempted += int64(admitted + shed)
			got := res.quotaShed[c.spec.name]
			switch excess := int64(got) - int64(shed); {
			case c.rows+int64(got) != int64(admitted+shed):
				logf("CHECK FAILED %s: %d admitted + %d shed, reference offers %d", c.spec.name, c.rows, got, admitted+shed)
				out.Failed += abs64(c.rows + int64(got) - int64(admitted+shed))
			case excess < 0 || excess > int64(admitted+shed)/500:
				logf("CHECK FAILED %s: %d rows shed, reference %d", c.spec.name, got, shed)
				out.Failed += abs64(excess)
			case excess > 0:
				// A stall of the whole process longer than a window makes two
				// closes share one gate clock reading and the second finds
				// the bucket empty: more shed, never less. Up to 0.2 % of the
				// offered rows is put down to that and reported, not failed.
				logf("  %s: %d rows shed beyond the reference's %d after a pacing stall", c.spec.name, excess, shed)
			}
			continue
		default:
			want = refDigest(refSelect(p.tapRows, fanMod, c.spec.residue), laps, p.lap.seconds)
		}
		out.Attempted += int64(want.n)
		if m := c.dig.mismatch(want); m != 0 {
			logf("CHECK FAILED %s: digest %+v, reference %+v", c.spec.name, c.dig, want)
			out.Failed += m
		}
		if w.sampling {
			var errs []float64
			for tb, adj := range c.adjSum {
				truth := p.lap.winLen[tb%p.lap.seconds]
				errs = append(errs, math.Abs(adj-truth)/truth)
			}
			if relerr = mean(errs); relerr >= 0.10 || len(errs) == 0 {
				logf("CHECK FAILED %s: sample_relerr_mean %.4f over %d windows (limit 0.10)", c.spec.name, relerr, len(errs))
				out.Failed++
			}
		}
	}
	out.Correct = out.Failed == 0
	return relerr
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// backlogCheck rejects a paced run whose feed lag kept growing: the pump
// was not keeping up, so its latencies describe a queue, not the system.
func backlogCheck(f *loopFeed) error {
	if f.speedup <= 0 || len(f.closes) < 4 {
		return nil
	}
	window := int64(1e9 / f.speedup)
	mid, end := f.closes[len(f.closes)/2].lag, f.closes[len(f.closes)-1].lag
	if end-mid > window {
		return fmt.Errorf("growing backlog: feed lag %.1f ms at the midpoint, %.1f ms at the end (window %.1f ms); run invalid",
			float64(mid)/1e6, float64(end)/1e6, float64(window)/1e6)
	}
	return nil
}

func tmpDir(cfg runConfig, pattern string) (string, error) {
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.buildDir, pattern)
}
