package main

import (
	"fmt"
	"math"
	"time"

	"streamop/internal/engine"
	"streamop/internal/trace"
)

// A traced invocation spends its run length on three things: an untraced
// quarter-length session (the base), the same session again with spans
// recorded around the benchmark's own calls and callbacks, and the layer
// ladder. The difference between the two sessions is trace_overhead_pct.

// layerResult prints every per-layer metric BENCHMARK.json declares; a
// layer off the workload's path, which set nothing in m, reports 0.
func layerResult(spec *benchSpec, m map[string]float64, attempted, failed int64) *result {
	out := spec.newResult()
	out.Attempted, out.Failed, out.Correct = attempted, failed, failed == 0
	m["failed_share"] = float64(failed) / float64(max(attempted, 1))
	for _, d := range spec.PerLayer {
		out.set(d.Name, m[d.Name])
	}
	return out
}

// p99 is the nearest-rank 99th percentile of v, or 0 when v has fewer
// than the 1 000 samples that leave ten beyond it: a lower order
// statistic is not printed under this name.
func p99(what string, v []float64) float64 {
	val, q, n, beyond := tail(v)
	if n < 1000 {
		logf("  %s: %d windows, too few for a p99 (p%.1f is %.3f ms, %d beyond); deliver_ms_p99 reports 0", what, n, q*100, val, beyond)
		return 0
	}
	logf("  %s: deliver_ms p99 %.3f over %d windows, %d beyond", what, val, n, beyond)
	return val
}

func tracedInproc(cfg runConfig, p *prepared) (*result, error) {
	w, m := p.w, map[string]float64{}
	quarter := cfg.seconds / 4
	// The untraced base session of the paced workload runs full length:
	// deliver_ms_p99 is taken from it and needs its 1 000 windows.
	baseSeconds := quarter
	if w.speedup > 0 {
		baseSeconds = cfg.seconds
	}
	base, err := p.session(cfg.seed, baseSeconds, nil)
	if err != nil {
		return nil, err
	}
	rec := &recorder{}
	tr, err := p.session(cfg.seed, quarter, rec)
	if err != nil {
		return nil, err
	}
	var checks result
	m["operator.sample_relerr_mean"] = p.verify(tr, &checks)
	for _, s := range []*sessionResult{base, tr} {
		if err := backlogCheck(s.feed); err != nil {
			return nil, err
		}
	}
	stBase, err := base.feed.stats()
	if err != nil {
		return nil, err
	}
	stTr, err := tr.feed.stats()
	if err != nil {
		return nil, err
	}
	m["trace_overhead_pct"] = 100 * (median(stTr.cpuPerPk)/median(stBase.cpuPerPk) - 1)
	m["cpu_pct_at_rate"] = stBase.cpuPct
	m["host.calib_pass_ms"] = median(base.feed.calib.ms)
	m["mem.alloc_bytes_per_pkt"] = float64(base.mem.allocBytes) / float64(base.packets)
	m["mem.gc_pause_ms_total"] = base.mem.gcPauseMS
	m["engine.low_busy_share"] = base.busyShare(func(n engine.NodeStats) bool { return n.Name == w.lowName })
	m["engine.high_busy_share"] = base.busyShare(func(n engine.NodeStats) bool { return n.Name != w.lowName })

	// Deliver spans: OnRow (the row leaves the operator) to the
	// subscriber's receive, paired by position in the stream.
	var waitUS []float64
	for _, c := range tr.consumers {
		sent := tr.pump[c.spec.name].sent
		for i := 0; i < min(len(sent), len(c.recvAt)); i++ {
			waitUS = append(waitUS, float64(c.recvAt[i]-sent[i])/1e3)
			if i%64 == 0 {
				rec.add("engine.deliver "+c.spec.name, sent[i], c.recvAt[i], -1, uint64(i*sampleEvery))
			}
		}
	}
	if len(waitUS) > 0 {
		m["engine.deliver_wait_us_p50"] = median(waitUS)
		m["engine.deliver_wait_us_p99"], _, _, _ = tail(waitUS)
	}
	isLatency := func(q querySpec) bool { return q.latency }
	m["deliver_ms_p99"] = p99("untraced session", deliveries(base, isLatency))
	lat := deliveries(tr, isLatency)
	m["engine.fanout_ms_p50"] = median(fanoutMS(tr))
	for i, c := range tr.feed.closes {
		if i%4 == 0 {
			rec.add("window.close", c.due, c.at, -1, c.tb)
		}
	}
	if w.speedup > 0 {
		m["engine.regroup_lag_ms_p50"] = median(deliveries(tr, func(q querySpec) bool { return q.name == regroupName }))
		var lag []float64
		for _, c := range tr.feed.closes {
			lag = append(lag, float64(c.lag)/1e6)
		}
		s := sorted(lag)
		m["engine.feed_lag_ms_p50"], m["engine.feed_lag_ms_max"] = percentile(s, 0.5), s[len(s)-1]
		m["engine.install_ms_p50"], m["engine.uninstall_ms_p50"] = median(tr.installMS), median(tr.uninstMS)
		m["overload.quota_shed_rows"] = float64(tr.quotaShed[quotaName])
	}
	if err := ladder(cfg, w, p.lap, m); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	path, err := rec.write(cfg.outDir, w.name, cfg.host)
	if err != nil {
		return nil, err
	}
	logf("%d spans in %s", len(rec.spans), path)
	shareTable(w.name, m, median(lat))
	return layerResult(cfg.spec, m, checks.Attempted, checks.Failed), nil
}

// fanoutMS is, per window after the warm-up lap, the pump's side of the
// delivery: from the closing packet's hand-out to the last row of the
// last latency tenant leaving its operator — ring wait, the flush, every
// tenant's pass over the flushed rows, and the pump's share of the
// hand-off to subscribers.
func fanoutMS(res *sessionResult) []float64 {
	last := map[uint64]int64{}
	for _, c := range res.consumers {
		if ps := res.pump[c.spec.name]; ps != nil && c.spec.latency {
			for tb, at := range ps.lastAt {
				last[tb] = max(last[tb], at)
			}
		}
	}
	var ms []float64
	for _, c := range res.feed.closes {
		if at, ok := last[c.tb]; ok && c.tb >= res.feed.lap.seconds {
			ms = append(ms, float64(at-c.at)/1e6)
		}
	}
	return ms
}

// shareTable prints each rung as a share of the whole and checks the
// interaction predictions written down before measuring (README.md).
func shareTable(workload string, m map[string]float64, deliverP50 float64) {
	whole := m["engine.session_ns_per_pkt"]
	hop := m["operator.high_process_ns_per_row"] * m["operator.rows_out_per_kpkt"] / 1000
	logf("ladder %s: session %.1f ns/pkt", workload, whole)
	share := func(name string, ns float64) float64 {
		logf("  %-62s %8.1f ns/pkt  %5.1f %%", name, ns, 100*ns/whole)
		return ns / whole
	}
	share("trace.feed_next", m["trace.feed_next_ns_per_pkt"])
	share("ringbuf.push_pop", m["ringbuf.push_pop_ns_per_pkt"])
	share("trace.append_batch", m["trace.append_batch_ns_per_pkt"])
	share("gsql.kernels (inside low_batch)", m["gsql.kernels_ns_per_pkt"])
	walk := share("operator.walk (inside low_batch)", m["operator.walk_ns_per_pkt"])
	low := share("operator.low_batch (kernels + walk, or the scalar selection)", m["operator.low_batch_ns_per_pkt"])
	high := share("operator.high_process x rows/pkt", hop)
	if self := share("engine.self (session - rungs)", m["engine.self_ns_per_pkt"]); math.Abs(self) > 0.10 {
		logf("  LADDER_GAP: %.1f %% of the session is outside the rungs", 100*self)
	}
	predict := func(ok bool, format string, args ...any) {
		verdict := "MET"
		if !ok {
			verdict = "MISSED"
		}
		logf("  prediction %s: %s", verdict, fmt.Sprintf(format, args...))
	}
	switch workload {
	case "sample_walk":
		predict(low >= 0.5 && high == 0, "operator rungs >= 50 %% (%.1f %%), high_process 0 (%.1f %%)", 100*low, 100*high)
	case "two_level":
		predict(high >= 0.5 && walk <= 0.15, "high_process >= 50 %% (%.1f %%), walk <= 15 %% (%.1f %%)", 100*high, 100*walk)
	case "tenant_fanout":
		// Per window: the tap's flush, every tenant's pass over the
		// flushed rows, and the hand-off wait.
		rows := m["operator.rows_out_per_kpkt"] / 1000 * fanRate
		part := m["operator.flush_ms_p50"] + m["operator.high_process_ns_per_row"]*rows/1e6 + m["engine.deliver_wait_us_p50"]/1e3
		predict(part >= 0.5*deliverP50, "flush + high_process + deliver_wait >= 50 %% of deliver_ms_p50 (%.2f of %.2f ms)", part, deliverP50)
		line := m["engine.feed_lag_ms_p50"] + m["engine.fanout_ms_p50"] + m["engine.deliver_wait_us_p50"]/1e3
		logf("  timeline: feed_lag %.2f + fanout %.2f (flush %.2f, high_process %.2f, the engine's own hop and hand-off the rest) + deliver_wait %.2f = %.2f of %.2f ms",
			m["engine.feed_lag_ms_p50"], m["engine.fanout_ms_p50"], m["operator.flush_ms_p50"],
			m["operator.high_process_ns_per_row"]*rows/1e6, m["engine.deliver_wait_us_p50"]/1e3, line, deliverP50)
	}
}

// gsqdInproc describes the queries the daemon is given, for the ladder's
// in-process rungs.
func gsqdInproc() *inproc {
	w := &inproc{name: "gsqd_sse", lapSeconds: 2, rate: 100000, hosts: 1 << 16,
		lowName: "tap", lowSrc: gsqdTap, ladderSeconds: 2}
	for i := 0; i < gsqdTenants; i++ {
		w.queries = append(w.queries, querySpec{name: fmt.Sprintf("t%d", i), src: gsqdTenantQ, via: gsqdTap, subscribe: true})
	}
	return w
}

func tracedGsqd(cfg runConfig, d *daemon) (*result, error) {
	m := map[string]float64{}
	quarter := cfg.seconds / 4
	warm := time.Duration(float64(gsqdWarmup) * cfg.scaleWarm())
	var runs [2]*gsqdRun
	var recs = [2]*recorder{nil, {}}
	var attempted, failed int64
	for i := range runs {
		r := &gsqdRun{d: d, st: &httpStats{}, calib: newCalibrator()}
		runs[i] = r
		if err := r.measure(quarter, warm, recs[i], i == 0); err != nil {
			return nil, err
		}
		var out result
		if err := r.fill(cfg, &out); err != nil {
			return nil, err
		}
		attempted, failed = attempted+out.Attempted, failed+out.Failed
		for _, c := range r.conns { // free the names for the next run
			if _, _, err := d.call(r.st, nil, "DELETE", "/queries/"+c.name, nil); err != nil {
				return nil, err
			}
		}
	}
	base, tr := runs[0], runs[1]
	wall := float64(base.b.at-base.a.at) / 1e9
	pkts, rows := float64(base.b.packets-base.a.packets), float64(base.b.rows-base.a.rows)
	cpu := base.b.cpu - base.a.cpu
	_, baseCPP := base.rates()
	_, trCPP := tr.rates()
	m["trace_overhead_pct"] = 100 * (median(trCPP)/median(baseCPP) - 1)
	m["cpu_pct_at_rate"] = 100 * cpu / wall
	m["sse_rows_per_s"] = rows / wall
	m["deliver_ms_p99"] = p99("untraced run", base.windowDeliveries())
	m["host.calib_pass_ms"] = median(base.calib.ms)
	m["gsqd.tap_pkts_per_s"] = pkts / wall
	m["gsqd.sse_bytes_per_row"] = float64(base.b.bytes-base.a.bytes) / rows
	m["gsqd.install_ms_p50"] = median(base.installs)
	m["gsqd.install_ms_p90"] = percentile(sorted(base.installs), 0.9)
	m["gsqd.metrics_scrape_ms"] = median(base.scrapes)
	m["gsqd.startup_ms"] = d.startMS
	m["mem.alloc_bytes_per_pkt"] = float64(base.heap[1].totalAlloc-base.heap[0].totalAlloc) / pkts
	m["mem.gc_pause_ms_total"] = base.heap[1].pauseMS - base.heap[0].pauseMS

	// The ladder's in-process rungs run the daemon's queries over the
	// feed the daemon replays.
	w := gsqdInproc()
	feed, err := gsqdFeed(cfg, float64(w.lapSeconds))
	if err != nil {
		return nil, err
	}
	l := &lap{pkts: trace.Collect(feed), seconds: uint64(w.lapSeconds), winLen: make([]float64, w.lapSeconds)}
	if err := ladder(cfg, w, l, m); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	// What the daemon spends per row beyond what the same session costs
	// in process is HTTP: JSON encoding and the per-row Flush.
	m["gsqd.sse_us_per_row"] = (cpu - pkts*m["engine.session_ns_per_pkt"]/1e9) / rows * 1e6
	path, err := recs[1].write(cfg.outDir, w.name, cfg.host)
	if err != nil {
		return nil, err
	}
	logf("%d spans in %s", len(recs[1].spans), path)
	shareTable(w.name, m, 0)
	sseS := m["gsqd.sse_us_per_row"] * rows / 1e6
	verdict := "MET"
	if sseS < 0.9*wall {
		verdict = "MISSED"
	}
	logf("  prediction %s: gsqd.sse_us_per_row x rows >= 90 %% of wall (%.2f us/row x %.0f rows = %.2f s: %.1f %% of %.2f s wall, %.1f %% of gsqd's %.2f CPU-s)",
		verdict, m["gsqd.sse_us_per_row"], rows, sseS, 100*sseS/wall, wall, 100*sseS/cpu, cpu)
	return layerResult(cfg.spec, m, attempted, failed), nil
}
