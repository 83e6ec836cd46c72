package main

import (
	"fmt"
	"math"
	"time"

	"streamop/internal/engine"
	"streamop/internal/overload"
	"streamop/internal/trace"
	"streamop/internal/tuple"
)

// The workloads' queries. The subset-sum query is the paper's dynamic
// subset-sum sampling (§6.1, measured in §7.3); passThrough is Fig. 5's
// expensive low-level configuration, forwarding every packet to the high
// level; fanTap is the shared aggregating tap of the tenant workloads.
const (
	// sampleBuffer is the subscription buffer of the two sampling
	// workloads: a whole window's sample and more, so that the pump never
	// waits on the subscriber — those two workloads are about the packet
	// path, and tenant_fanout (default buffer) is the one about hand-off.
	sampleBuffer = 32768
	sampleN      = 10000
	passThrough  = `SELECT time, srcIP, destIP, len, uts FROM PKT`
	fanTap       = `SELECT tb, srcIP, sum(len) AS bytes, count(*) AS cnt FROM PKT GROUP BY time/1 AS tb, srcIP`
)

func subsetSum(from string) string {
	return fmt.Sprintf(`SELECT tb, uts, srcIP, destIP, UMAX(sum(len), ssthreshold()) AS adjlen
FROM %s
WHERE ssample(len, %d, 2, 10) = TRUE
GROUP BY time/1 AS tb, srcIP, destIP, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`, from, sampleN)
}

func selectTenant(rem int) string {
	return fmt.Sprintf(`SELECT tb, srcIP, bytes, cnt FROM tap WHERE srcIP %% %d <> %d`, fanMod, rem)
}

const (
	// fanMod splits the tap's rows between the selection tenants by
	// source address: residues 0..5 are the six latency tenants, 6 the
	// over-quota tenant, 7 the throw-away tenant of the control loop.
	fanMod      = 8
	fanSpeedup  = 55   // one-second windows per wall second
	fanRate     = 3640 // pps of stream time; x fanSpeedup = 200.2 k pkts/s wall
	fanHosts    = 2048
	regroupName = "regroup"
	quotaName   = "overquota"
	regroupSrc  = `SELECT tb2, net, sum(bytes) AS nbytes, sum(cnt) AS npkts FROM tap GROUP BY tb AS tb2, srcIP/256 AS net`
)

// inproc describes a workload that runs as a session inside the
// benchmark process.
type inproc struct {
	name       string
	lapSeconds int
	rate       float64
	hosts      uint64
	speedup    float64
	lowName    string // the low-level node: the query itself or the shared tap
	lowSrc     string // its GSQL over PKT
	queries    []querySpec
	churn      *churn
	// sampling workloads are checked against Engine.Run; the others
	// against the naive reference.
	sampling bool
	// ladderSeconds is how much of the lap the ladder's rungs replay.
	ladderSeconds int
}

func (w *inproc) highSpecs() []querySpec {
	var hs []querySpec
	for _, q := range w.queries {
		if q.via != "" {
			hs = append(hs, q)
		}
	}
	return hs
}

func sampleWalk() *inproc {
	return &inproc{
		name: "sample_walk", lapSeconds: 20, rate: 100000, hosts: 1 << 16,
		lowName: "ss", lowSrc: subsetSum("PKT"), sampling: true, ladderSeconds: 5,
		queries: []querySpec{{name: "ss", src: subsetSum("PKT"), subscribe: true, latency: true, buffer: sampleBuffer}},
	}
}

func twoLevel() *inproc {
	return &inproc{
		name: "two_level", lapSeconds: 20, rate: 100000, hosts: 1 << 16,
		lowName: "low", lowSrc: passThrough, sampling: true, ladderSeconds: 3,
		queries: []querySpec{{name: "ss", src: subsetSum("low"), via: passThrough, subscribe: true, latency: true, buffer: sampleBuffer}},
	}
}

// quotaFor budgets the over-quota tenant at half of what it is offered.
// Its rows arrive in one burst per window close, so the budget that
// matters is the bucket's depth: half a window's rows. The refill rate is
// set so the bucket is full again a tenth of a second of stream time
// later: the gate's clock is the newest packet admitted to the ring, which
// runs up to a ring's worth ahead of the packet being processed, and a
// slower refill would make the shed count depend on how the pacer happened
// to batch admissions.
func quotaFor(rowsPerWindow float64) overload.Quota {
	return overload.Quota{Rows: 10 * math.Floor(rowsPerWindow/2), BurstSec: 0.1}
}

func tenantFanout() *inproc {
	w := &inproc{
		name: "tenant_fanout", lapSeconds: fanSpeedup, rate: fanRate, hosts: fanHosts,
		speedup: fanSpeedup, lowName: "tap", lowSrc: fanTap, ladderSeconds: fanSpeedup,
	}
	for k := 0; k < 6; k++ {
		w.queries = append(w.queries, querySpec{
			name: fmt.Sprintf("sel%d", k), src: selectTenant(k), residue: uint64(k), via: fanTap, subscribe: true, latency: true,
		})
	}
	w.queries = append(w.queries,
		querySpec{name: regroupName, src: regroupSrc, via: fanTap, subscribe: true},
		querySpec{name: quotaName, src: selectTenant(6), residue: 6, via: fanTap, subscribe: true}, // quota set by set-up
	)
	w.churn = &churn{
		spec:   querySpec{name: "churn", src: `SELECT tb, srcIP, bytes FROM tap WHERE srcIP % 8 <> 7`, via: fanTap},
		period: time.Second,
	}
	return w
}

// refSeconds is how much of the lap Engine.Run reproduces for the
// sampling workloads' output check.
const refSeconds = 5

// prepared is what set-up hands the measured run: the lap and the
// reference outputs.
type prepared struct {
	w   *inproc
	lap *lap
	// Sampling workloads: the digest of Engine.Run over the first
	// refSeconds of the lap.
	runDigest  digest
	refSeconds uint64
	// Aggregating workloads: the naive reference, per lap.
	tapRows   []refRow
	perWindow []uint64 // rows per window the over-quota tenant is offered
}

// setupInproc materialises the lap and computes the reference output.
// scale shrinks the lap for the smoke test.
func setupInproc(w *inproc, seed uint64, scale float64, corrupt bool, reuse []trace.Packet) (*prepared, error) {
	// A scaled-down lap (the smoke test) still holds whole windows, and
	// two at least, so that one closes inside every lap.
	secs := int(math.Max(2, math.Round(float64(w.lapSeconds)*scale)))
	l, err := materialise(seed, secs, w.rate, w.hosts, reuse)
	if err != nil {
		return nil, err
	}
	p := &prepared{w: w, lap: l}
	if w.sampling {
		p.refSeconds = min(refSeconds, l.seconds)
		p.runDigest, _, err = engineRun(w, l.head(p.refSeconds), seed, false)
		if err != nil {
			return nil, err
		}
	} else {
		p.tapRows = refTap(l.pkts, bySrc)
		p.perWindow = make([]uint64, secs)
		for i := range w.queries {
			if q := &w.queries[i]; q.name == quotaName {
				offered := refSelect(p.tapRows, fanMod, q.residue)
				for _, r := range offered {
					p.perWindow[r.tb]++
				}
				q.quota = quotaFor(float64(len(offered)) / float64(secs))
			}
		}
	}
	if corrupt {
		p.runDigest.add(1)
		if len(p.tapRows) > 0 {
			p.tapRows[0].bytes++
		}
	}
	return p, nil
}

// engineRun drives one lap through the workload's queries with the
// one-shot Engine.Run (no session) and returns the rows' digest and the
// wall nanoseconds per packet. parallel selects RunParallel.
func engineRun(w *inproc, l *lap, seed uint64, parallel bool) (digest, float64, error) {
	e, err := newEngine(false)
	if err != nil {
		return digest{}, 0, err
	}
	// One digest per query: under RunParallel each node's OnRow runs on
	// its own goroutine.
	parts := make([]digest, len(w.queries))
	for i, q := range w.queries {
		opts := engine.InstallOptions{Via: q.via, Seed: seed, Quota: q.quota}
		if q.subscribe {
			part := &parts[i]
			opts.OnRow = func(row tuple.Tuple) error {
				part.add(rowHash(row))
				return nil
			}
		}
		if _, err := e.Install(q.name, q.src, opts); err != nil {
			return digest{}, 0, fmt.Errorf("installing %s: %w", q.name, err)
		}
	}
	feed := trace.NewReplay(l.pkts)
	t := now()
	if parallel {
		err = e.RunParallel(feed, 0)
	} else {
		err = e.Run(feed)
	}
	ns := float64(now()-t) / float64(len(l.pkts))
	var d digest
	for _, p := range parts {
		d.merge(p)
	}
	return d, ns, err
}

// lapStats are the per-lap figures of a session, warm-up lap excluded.
// Throughput and CPU cost are reported as medians over laps.
type lapStats struct {
	laps     int
	pktsPerS []float64 // per measured lap
	cpuPerPk []float64 // CPU seconds per packet, per measured lap
	cpuPct   float64   // CPU over wall across the measured laps, percent of one core
	wall     float64
	packets  int64
}

func (f *loopFeed) stats() (lapStats, error) {
	var s lapStats
	m := f.marks
	if len(m) < 3 {
		return s, fmt.Errorf("feed ended after %d laps; need a warm-up lap and a measured one", len(m)-1)
	}
	n := float64(len(f.lap.pkts))
	// A stretch's wall and CPU seconds, the calibrator's passes left out.
	wall := func(a, b lapMark) float64 { return float64(b.wall-a.wall-(b.calStall-a.calStall)) / 1e9 }
	cpu := func(a, b lapMark) float64 { return b.cpu - a.cpu - float64(b.calCPU-a.calCPU)/1e9 }
	for k := 1; k+1 < len(m); k++ {
		s.pktsPerS = append(s.pktsPerS, n/wall(m[k], m[k+1]))
		s.cpuPerPk = append(s.cpuPerPk, cpu(m[k], m[k+1])/n)
	}
	s.laps = len(s.pktsPerS)
	s.packets = int64(s.laps) * int64(len(f.lap.pkts))
	s.wall = wall(m[1], m[len(m)-1])
	s.cpuPct = 100 * cpu(m[1], m[len(m)-1]) / s.wall
	return s, nil
}

// deliveries is, per window, the milliseconds from the window's close
// being due to the moment the last picked tenant had received its last
// row, skipping the warm-up lap and the final window (flushed by end of
// stream, not by a closing packet).
func deliveries(res *sessionResult, pick func(querySpec) bool) []float64 {
	done := map[uint64]int64{}
	for _, c := range res.consumers {
		if !pick(c.spec) {
			continue
		}
		for i, tb := range c.winTB {
			done[tb] = max(done[tb], c.winAt[i])
		}
	}
	var ms []float64
	for _, c := range res.feed.closes {
		if at, ok := done[c.tb]; ok && c.tb >= res.feed.lap.seconds {
			ms = append(ms, float64(at-c.due)/1e6)
		}
	}
	return ms
}
