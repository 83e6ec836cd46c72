package main

import (
	"fmt"
	"os"
	"sort"

	"streamop/internal/checkpoint"
	"streamop/internal/gsql"
	"streamop/internal/operator"
	"streamop/internal/overload"
	"streamop/internal/ringbuf"
	"streamop/internal/sample/subsetsum"
	"streamop/internal/sfunlib"
	"streamop/internal/trace"
	"streamop/internal/tuple"
)

// The layer ladder: the workload's own lap and plans driven by hand
// through each layer's public functions, one rung at a time, so every
// rung is a self time by construction — nothing a rung times calls into
// another rung's layer, except where its name says so (low_batch holds
// the kernels; walk is their difference).

const batchRows = 512 // the engine's pop batch

// compile parses and analyses src against schema.
func compile(src string, schema *tuple.Schema, seed uint64) (*gsql.Plan, error) {
	q, err := gsql.Parse(src)
	if err != nil {
		return nil, err
	}
	return gsql.Analyze(q, schema, sfunlib.Default(seed))
}

func nullEmit(tuple.Tuple) error { return nil }

// chunks calls fn with each batchRows-sized piece of pkts.
func chunks(pkts []trace.Packet, fn func([]trace.Packet) error) error {
	for i := 0; i < len(pkts); i += batchRows {
		if err := fn(pkts[i:min(i+batchRows, len(pkts))]); err != nil {
			return err
		}
	}
	return nil
}

// rung is one timed pass of the ladder, in nanoseconds per packet (or per
// row, for the hop).
type rung struct {
	name string
	pass func() (float64, error)
}

// climb runs every rung once per round, for rounds rounds, and keeps each
// rung's fastest pass. The rungs are short single-threaded loops, where
// the minimum is the figure least touched by whatever else the host is
// doing; interleaving them spreads every rung's passes over the whole
// climb, so that a slow stretch of the host cannot sit on one rung alone
// and pass for a difference between layers.
func climb(rounds int, rungs []rung, m map[string]float64) error {
	for r := 0; r < rounds; r++ {
		for _, g := range rungs {
			v, err := g.pass()
			if err != nil {
				return fmt.Errorf("%s: %w", g.name, err)
			}
			if old, seen := m[g.name]; r == 0 || !seen || v < old {
				m[g.name] = v
			}
		}
	}
	return nil
}

// ladder computes the rungs for an in-process workload (and, for
// gsqd_sse, for the queries the daemon is given). m receives the metrics.
func ladder(cfg runConfig, w *inproc, l *lap, m map[string]float64) error {
	// The ladder replays the first ladderSeconds of the lap.
	sub := l.head(uint64(w.ladderSeconds))
	pkts := sub.pkts
	perPkt := func(ns int64) float64 { return float64(ns) / float64(len(pkts)) }
	rounds := 3
	if cfg.scale < 1 {
		rounds = 1 // the smoke test wants the metrics, not their precision
	}

	// gsql: compile time of every query of the workload.
	t := now()
	lowPlan, err := compile(w.lowSrc, trace.Schema(), cfg.seed)
	if err != nil {
		return err
	}
	gsql.Vectorize(lowPlan)
	lowSchema, err := lowPlan.OutputSchema(w.lowName)
	if err != nil {
		return err
	}
	highs := w.highSpecs()
	for _, q := range highs {
		hp, err := compile(q.src, lowSchema, cfg.seed)
		if err != nil {
			return err
		}
		gsql.Vectorize(hp)
	}
	m["gsql.compile_ms"] = float64(now()-t) / 1e6

	// The rows crossing the low-to-high hop, collected outside any timing.
	var hop []tuple.Tuple
	if len(highs) > 0 {
		if hop, err = hopRows(w, pkts, cfg.seed); err != nil {
			return err
		}
	}
	dir, err := tmpDir(cfg, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	b := tuple.NewBatch(trace.Schema(), batchRows)
	ring, err := ringbuf.New[trace.Packet](ringSize)
	if err != nil {
		return err
	}
	buf := make([]trace.Packet, batchRows)
	var rowsOut int64
	// session runs the workload's queries unpaced, whatever the workload,
	// so that it compares with the run loops; the telemetry and
	// checkpoint taxes ride on it.
	session := func(o sessionOpts) func() (float64, error) {
		return func() (float64, error) {
			o.seed, o.queries = cfg.seed, w.queries
			res, err := runSession(newLoopFeed(sub, 0, func(laps int) bool { return laps >= 2 }), o)
			if err != nil {
				return 0, err
			}
			st, err := res.feed.stats()
			if err != nil {
				return 0, err
			}
			return 1e9 / median(st.pktsPerS), nil
		}
	}
	rungs := []rung{
		// trace: what the feed and the packet-to-column conversion cost.
		{"trace.feed_next_ns_per_pkt", func() (float64, error) {
			f := newLoopFeed(sub, 0, func(int) bool { return true })
			t := now()
			for {
				if _, ok := f.Next(); !ok {
					break
				}
			}
			return perPkt(now() - t), nil
		}},
		{"trace.append_batch_ns_per_pkt", func() (float64, error) {
			t := now()
			chunks(pkts, func(c []trace.Packet) error {
				b.Reset()
				trace.AppendBatch(b, c)
				return nil
			})
			return perPkt(now() - t), nil
		}},
		// ringbuf: one PushBatch and one PopBatch per 512 packets.
		{"ringbuf.push_pop_ns_per_pkt", func() (float64, error) {
			t := now()
			chunks(pkts, func(c []trace.Packet) error {
				ring.PushBatch(c)
				ring.PopBatch(buf)
				return nil
			})
			return perPkt(now() - t), nil
		}},
		// gsql: the vectorized kernels of the low-level plan.
		{"gsql.kernels_ns_per_pkt", func() (float64, error) { return kernels(lowPlan, pkts) }},
		// operator: the low-level node's batch path over pre-converted
		// batches, null emit.
		{"operator.low_batch_ns_per_pkt", func() (float64, error) {
			plan, err := compile(w.lowSrc, trace.Schema(), cfg.seed)
			if err != nil {
				return 0, err
			}
			rowsOut = 0
			op, err := operator.New(plan, func(tuple.Tuple) error {
				rowsOut++
				return nil
			})
			if err != nil {
				return 0, err
			}
			var ns int64
			err = chunks(pkts, func(c []trace.Packet) error {
				b.Reset()
				trace.AppendBatch(b, c)
				t := now()
				err := op.ProcessBatch(b)
				ns += now() - t
				return err
			})
			if err == nil {
				t := now()
				err = op.Flush()
				ns += now() - t
			}
			return perPkt(ns), err
		}},
		// engine: the same topology under each run loop.
		{"engine.run_ns_per_pkt", func() (float64, error) {
			_, ns, err := engineRun(w, sub, cfg.seed, false)
			return ns, err
		}},
		{"engine.run_parallel_ns_per_pkt", func() (float64, error) {
			_, ns, err := engineRun(w, sub, cfg.seed, true)
			return ns, err
		}},
		{"engine.session_ns_per_pkt", session(sessionOpts{})},
		{"session without collector", session(sessionOpts{noCollector: true})},
		{"session with checkpoints", session(sessionOpts{checkpointDir: dir})},
	}
	if len(hop) > 0 {
		// Every high-level node's scalar path over the hop rows. Every node
		// sees every row, so the hop's cost per row is the sum over nodes.
		rungs = append(rungs, rung{"operator.high_process_ns_per_row", func() (float64, error) {
			var ns int64
			for _, q := range highs {
				op, err := newOp(q.src, lowSchema, cfg.seed)
				if err != nil {
					return 0, err
				}
				t := now()
				for _, row := range hop {
					if err := op.Process(row); err != nil {
						return 0, err
					}
				}
				ns += now() - t
			}
			return float64(ns) / float64(len(hop)), nil
		}})
	}
	if !lowPlan.IsSelection && !w.sampling {
		rungs = append(rungs, rung{"engine.sharded2_ns_per_pkt", func() (float64, error) { return sharded2(w, sub, cfg.seed) }})
	}
	if err := climb(rounds, rungs, m); err != nil {
		return err
	}
	plain, bare, durable := m["engine.session_ns_per_pkt"], m["session without collector"], m["session with checkpoints"]
	delete(m, "session without collector")
	delete(m, "session with checkpoints")
	m["telemetry.collector_tax_pct"] = 100 * (plain/bare - 1)
	m["checkpoint.session_tax_pct"] = 100 * (durable/plain - 1)
	if !lowPlan.IsSelection {
		// A selection does not vectorize: its node runs the scalar row path
		// and the columnar walk is bypassed altogether (walk stays 0).
		m["operator.walk_ns_per_pkt"] = m["operator.low_batch_ns_per_pkt"] - m["gsql.kernels_ns_per_pkt"]
	}
	m["operator.rows_out_per_kpkt"] = 1000 * float64(rowsOut) / float64(len(pkts))
	m["engine.self_ns_per_pkt"] = plain - (m["trace.feed_next_ns_per_pkt"] + m["ringbuf.push_pop_ns_per_pkt"] +
		m["trace.append_batch_ns_per_pkt"] + m["operator.low_batch_ns_per_pkt"] +
		m["operator.high_process_ns_per_row"]*m["operator.rows_out_per_kpkt"]/1000)

	if m["operator.flush_ms_p50"], err = flushP50(w, sub, lowSchema, hop, cfg.seed); err != nil {
		return err
	}
	if w.sampling {
		if m["operator.overhead_factor"], err = overheadFactor(sub, cfg.seed); err != nil {
			return err
		}
	}
	// checkpoint: snapshot of the loaded low-level operator.
	if err := snapshotRung(w, sub, cfg.seed, dir, m); err != nil {
		return err
	}
	// overload: the tenant gate's admission decision.
	for _, q := range w.queries {
		if q.quota.Enabled() {
			g := overload.NewTenantGate(q.quota)
			const calls = 2_000_000
			t := now()
			for i := uint64(0); i < calls; i++ {
				g.Admit(32, i*1000)
			}
			m["overload.quota_admit_ns_per_row"] = float64(now()-t) / calls
		}
	}
	return nil
}

// hopRows returns the first rows the low-level node emits over pkts, as
// the high-level nodes receive them.
func hopRows(w *inproc, pkts []trace.Packet, seed uint64) ([]tuple.Tuple, error) {
	const limit = 300000
	var hop []tuple.Tuple
	plan, err := compile(w.lowSrc, trace.Schema(), seed)
	if err != nil {
		return nil, err
	}
	op, err := operator.New(plan, func(row tuple.Tuple) error {
		if len(hop) < limit {
			hop = append(hop, row.Clone())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	b := tuple.NewBatch(trace.Schema(), batchRows)
	err = chunks(pkts, func(c []trace.Packet) error {
		if len(hop) >= limit {
			return nil
		}
		b.Reset()
		trace.AppendBatch(b, c)
		return op.ProcessBatch(b)
	})
	if err == nil && len(hop) < limit {
		err = op.Flush()
	}
	return hop, err
}

func newOp(src string, schema *tuple.Schema, seed uint64) (*operator.Operator, error) {
	plan, err := compile(src, schema, seed)
	if err != nil {
		return nil, err
	}
	return operator.New(plan, nullEmit)
}

// kernels times the stateless column kernels ProcessBatch runs up front
// (GROUP BY, WHERE or its stateless arguments, aggregate and
// superaggregate arguments) over pre-converted batches. A plan that does
// not vectorize has none.
func kernels(plan *gsql.Plan, pkts []trace.Packet) (float64, error) {
	vp, ok := gsql.Vectorize(plan)
	if !ok {
		return 0, nil
	}
	env := &gsql.VecEnv{}
	b := tuple.NewBatch(trace.Schema(), batchRows)
	gb := make([]*tuple.Column, len(vp.GroupBy))
	var mask tuple.Bitmap
	var ns int64
	err := chunks(pkts, func(c []trace.Packet) error {
		b.Reset()
		trace.AppendBatch(b, c)
		t := now()
		env.Reset(b)
		for i, e := range vp.GroupBy {
			col, err := e.EvalCol(env)
			if err != nil {
				return err
			}
			gb[i] = col
		}
		env.SetGroupCols(gb)
		if vp.Where != nil {
			var err error
			if mask, err = vp.Where.EvalTruth(env, mask); err != nil {
				return err
			}
		}
		if vp.WhereCall != nil {
			if err := vp.WhereCall.EvalArgs(env); err != nil {
				return err
			}
		}
		for _, args := range [][]*gsql.VecExpr{vp.AggArgs, vp.SuperArgs} {
			for _, e := range args {
				if e != nil {
					if _, err := e.EvalCol(env); err != nil {
						return err
					}
				}
			}
		}
		ns += now() - t
		return nil
	})
	return float64(ns) / float64(len(pkts)), err
}

// flushP50 times Flush on one loaded window after another of the
// workload's windowed operator: the low-level node when it groups, else
// the first high-level node over the rows that reach it.
func flushP50(w *inproc, l *lap, lowSchema *tuple.Schema, hop []tuple.Tuple, seed uint64) (float64, error) {
	var ms []float64
	timeFlush := func(op *operator.Operator) error {
		t := now()
		err := op.Flush()
		ms = append(ms, float64(now()-t)/1e6)
		return err
	}
	low, err := newOp(w.lowSrc, trace.Schema(), seed)
	if err != nil {
		return 0, err
	}
	if highs := w.highSpecs(); w.sampling && len(highs) > 0 {
		op, err := newOp(highs[0].src, lowSchema, seed)
		if err != nil {
			return 0, err
		}
		cur := uint64(0)
		for _, row := range hop {
			if tb := row[0].AsUint(); tb != cur {
				if err := timeFlush(op); err != nil {
					return 0, err
				}
				cur = tb
			}
			if err := op.Process(row); err != nil {
				return 0, err
			}
		}
		return median(ms), nil
	}
	b := tuple.NewBatch(trace.Schema(), batchRows)
	start := 0
	for i := 1; i <= len(l.pkts); i++ {
		if i < len(l.pkts) && l.pkts[i].Time/1e9 == l.pkts[start].Time/1e9 {
			continue
		}
		err := chunks(l.pkts[start:i], func(c []trace.Packet) error {
			b.Reset()
			trace.AppendBatch(b, c)
			return low.ProcessBatch(b)
		})
		if err == nil {
			err = timeFlush(low)
		}
		if err != nil {
			return 0, err
		}
		start = i
	}
	return median(ms), nil
}

// overheadFactor is §7.3's figure: the generic operator's batch path over
// the hand-coded subsetsum.Dynamic on the same packets and windows,
// interleaved, fastest of five each.
func overheadFactor(l *lap, seed uint64) (float64, error) {
	b := tuple.NewBatch(trace.Schema(), batchRows)
	var sink float64
	var opNS, directNS []float64
	for i := 0; i < 5; i++ {
		op, err := newOp(subsetSum("PKT"), trace.Schema(), seed)
		if err != nil {
			return 0, err
		}
		var ns int64
		err = chunks(l.pkts, func(c []trace.Packet) error {
			b.Reset()
			trace.AppendBatch(b, c)
			t := now()
			err := op.ProcessBatch(b)
			ns += now() - t
			return err
		})
		if err != nil {
			return 0, err
		}
		opNS = append(opNS, float64(ns))

		d, err := subsetsum.NewDynamic[uint64](subsetsum.Config{TargetSize: sampleN, InitialZ: 1, Theta: 2, RelaxFactor: 10})
		if err != nil {
			return 0, err
		}
		t := now()
		win := uint64(0)
		for _, p := range l.pkts {
			if w := p.Time / 1e9; w != win {
				sink += subsetsum.Estimate(d.EndWindow())
				win = w
			}
			d.Offer(float64(p.Len), p.Time)
		}
		sink += subsetsum.Estimate(d.EndWindow())
		directNS = append(directNS, float64(now()-t))
	}
	if sink == 0 {
		return 0, fmt.Errorf("hand-coded subset-sum sampled nothing")
	}
	return minOf(opNS) / minOf(directNS), nil
}

// sharded2 runs the tap alone as a partial-aggregation node fanned out
// over two shards under RunParallel.
func sharded2(w *inproc, l *lap, seed uint64) (float64, error) {
	e, err := newEngine(false)
	if err != nil {
		return 0, err
	}
	plan, err := compile(w.lowSrc, trace.Schema(), seed)
	if err != nil {
		return 0, err
	}
	n, err := e.AddLowLevelPartialAgg(w.lowName, plan, 1<<16)
	if err != nil {
		return 0, err
	}
	n.SetShards(2)
	t := now()
	err = e.RunParallel(trace.NewReplay(l.pkts), 0)
	return float64(now()-t) / float64(len(l.pkts)), err
}

// snapshotRung loads the workload's low-level operator with one window
// and times Snapshot plus checkpoint.WriteFile into dir.
func snapshotRung(w *inproc, l *lap, seed uint64, dir string, m map[string]float64) error {
	op, err := newOp(w.lowSrc, trace.Schema(), seed)
	if err != nil {
		return err
	}
	b := tuple.NewBatch(trace.Schema(), batchRows)
	end := sort.Search(len(l.pkts), func(i int) bool { return l.pkts[i].Time >= 1e9 })
	if err := chunks(l.pkts[:end], func(c []trace.Packet) error {
		b.Reset()
		trace.AppendBatch(b, c)
		return op.ProcessBatch(b)
	}); err != nil {
		return err
	}
	var ms []float64
	for seq := uint64(1); seq <= 9; seq++ {
		t := now()
		enc := checkpoint.NewEncoder()
		if err := op.Snapshot(enc); err != nil {
			return err
		}
		if _, err := checkpoint.WriteFile(dir, seq, enc.Bytes()); err != nil {
			return err
		}
		ms = append(ms, float64(now()-t)/1e6)
		m["checkpoint.snapshot_bytes"] = float64(len(enc.Bytes()))
	}
	m["checkpoint.snapshot_ms_p50"] = median(ms)
	return nil
}
