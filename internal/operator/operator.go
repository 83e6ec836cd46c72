// Package operator implements the stream sampling operator — the paper's
// core contribution (§5) — with the evaluation strategy of §6.4:
//
// Three tables are maintained per time window: the group table (group-by
// key → aggregates), the supergroup table (supergroup key → SFUN states and
// superaggregates) and the supergroup-group table (supergroup → its
// groups). Two supergroup tables exist, "old" and "new": when a supergroup
// first appears in a window, its states are initialized from the
// equivalent supergroup of the previous window, giving algorithms such as
// dynamic subset-sum sampling their threshold carry-over.
//
// Per tuple: window-boundary check (any ordered group-by expression
// changed → flush), supergroup lookup/creation, WHERE (which may invoke
// stateful functions — the loose admission predicate), superaggregate and
// group updates, then CLEANING WHEN on the supergroup; if it fires, the
// CLEANING BY predicate runs over every group of the supergroup and groups
// where it is FALSE are evicted. At the window border HAVING selects the
// groups that form the output sample.
//
// A group is a slot of the window's group store (grouptable.go): its key,
// hash, aggregates and contributions are row s of a few dense columns, the
// supergroup-group table lists slots, and the group table maps key hashes
// to them.
package operator

import (
	"fmt"
	"time"

	"streamop/internal/agg"
	"streamop/internal/estimate"
	"streamop/internal/gsql"
	"streamop/internal/profile"
	"streamop/internal/telemetry"
	"streamop/internal/tracing"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// Emit receives one output row. The row is lent: it is the callback's for
// the length of the call and is overwritten for the next row, so a callback
// copies (Tuple.Clone) what it keeps. Returning an error aborts processing.
type Emit func(tuple.Tuple) error

// ColumnSink receives the operator's output rows as columns: cols[i] is
// SELECT item i over one run of consecutive output rows (at least one, at
// most what an input batch selected or tuple.DefaultBatchRows of a window's
// sample). The columns are lent like an Emit's row: they are the operator's
// output batch, its kernel scratch or the input batch's own, valid during
// the call only. Returning an error aborts processing with every row of the
// run already counted in Stats.
type ColumnSink func(cols []*tuple.Column) error

// Stats counts operator activity, exposed for experiments and tuning.
type Stats struct {
	TuplesIn       int64 // tuples offered to the operator
	TuplesAccepted int64 // tuples passing WHERE
	GroupsCreated  int64
	GroupsEvicted  int64 // evictions by cleaning phases
	Cleanings      int64 // cleaning phases triggered
	Windows        int64 // windows flushed
	TuplesOut      int64 // output rows emitted
}

type supergroup struct {
	key    tuple.Key
	states []any
	supers []agg.Super
	// groups is the insertion-ordered supergroup-group table: group slots.
	// In the old table it is void, storage for the next window's.
	groups []int32
}

// Operator is a running instance of a compiled sampling query.
type Operator struct {
	plan *gsql.Plan
	// sink takes every output row (nil discards them). out is the batch
	// output fills and drain hands to the sink — empty whenever Process,
	// ProcessBatch or Flush returns, so it is no part of a snapshot — and
	// outRow the scratch a row's SELECT list evaluates into.
	sink   ColumnSink
	out    []*tuple.Column
	outRow tuple.Tuple

	// The open window's groups (see grouptable.go): the store of their
	// slots, the group table over it, and slot, the reader the per-group
	// clauses see a group's aggregates through.
	store  groupStore
	groups groupTable
	slot   agg.Slot
	// traces carries, by slot, the provenance traces of sampled tuples a
	// group has absorbed and not yet staged for output, so eviction,
	// HAVING, emission or a failing step can terminate them (see
	// tracing.go). Empty unless a tracer is attached.
	traces map[int32][]*tracing.TupleTrace
	// New and old supergroup tables, each with its insertion order for
	// deterministic flushing and snapshots.
	sgNew     map[uint64][]*supergroup
	sgOld     map[uint64][]*supergroup
	sgList    []*supergroup
	sgOldList []*supergroup

	// GROUP BY and the open window (see gsql.GroupFront), the rest of the
	// batch execution state (see batch.go), and the one-row batch Process
	// offers its tuple in.
	front *gsql.GroupFront
	vec   *vecState
	one   *tuple.Batch

	// Selection mode: a single global state vector, no grouping.
	selStates []any

	ctx     gsql.Ctx
	gbVals  []value.Value // scratch: group-by values of the current tuple
	keyVals []value.Value // scratch: a group's key values
	sgVals  []value.Value // scratch: supergroup key values
	argVals []value.Value // scratch: superaggregate argument values
	stats   Stats

	// Telemetry (see telemetry.go). tel and om are nil unless a collector
	// is attached; the per-tuple path never touches them.
	tel       *telemetry.Collector
	telName   string
	om        *opMetrics
	windowIdx int64 // windows flushed so far; x-coordinate of the series
	winBase   Stats // counters as of the previous window flush

	// Provenance tracing (see tracing.go). tr is nil unless the engine
	// attached a tracer; the walk's per-row cost is one comparison either
	// way.
	tr     *tracing.Tracer
	trName string

	// Profiling (see profile.go). prof is nil unless a profiler is
	// attached. nestedNS sums the cleaning sweeps and window flushes that
	// clocked themselves, so the walk around them is charged the remainder.
	// winStartNS anchors window end-to-end latency.
	prof       *profile.NodeProfile
	nestedNS   int64
	winStartNS int64

	// Boundary-consistent debug snapshot (see debug.go), published at
	// window flushes and cleaning phases when /debug/state is being served.
	debug debugPublisher

	// Estimation (see estimate.go). All nil/empty unless the plan carries
	// ESTIMATE … WITH ERROR items; the non-estimating flush path never
	// touches them.
	estAccs    []estimate.Accumulator
	estPending []estPending
	estWeights []float64         // window-scoped flat pool backing estPending weights
	estLast    []estimate.Result // finalized results of the last flush
	estHist    []AccuracyWindow  // bounded ring for /debug/accuracy
	accuracy   accuracyPublisher
}

// New creates an operator for plan, sending output rows to emit one by one
// (see Emit for who owns them). A nil emit discards them until
// SetColumnSink names a consumer.
func New(plan *gsql.Plan, emit Emit) (*Operator, error) {
	if plan == nil {
		return nil, fmt.Errorf("operator: nil plan")
	}
	o := &Operator{
		plan:    plan,
		front:   gsql.NewGroupFront(plan),
		out:     make([]*tuple.Column, len(plan.SelectExprs)),
		outRow:  make(tuple.Tuple, len(plan.SelectExprs)),
		sgNew:   make(map[uint64][]*supergroup),
		sgOld:   make(map[uint64][]*supergroup),
		store:   newGroupStore(plan),
		gbVals:  make([]value.Value, len(plan.GroupBy)),
		keyVals: make([]value.Value, 0, len(plan.GroupBy)),
		argVals: make([]value.Value, len(plan.Supers)),
	}
	o.slot.Cols = o.store.aggs
	o.vec = newVecState(plan, o.front.Vec())
	for i := range o.out {
		o.out[i] = new(tuple.Column)
	}
	if emit != nil {
		// The row form of the sink: one scratch row, rebuilt for each call.
		var row tuple.Tuple
		o.sink = func(cols []*tuple.Column) error {
			for i, n := 0, cols[0].Len(); i < n; i++ {
				row = tuple.RowOf(row, cols, i)
				if err := emit(row); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if plan.IsSelection {
		o.selStates = make([]any, len(plan.States))
		for i, sd := range plan.States {
			o.selStates[i] = sd.Type.Init(nil)
		}
	}
	if c := telemetry.Default(); c.Enabled() {
		o.SetCollector(c, defaultTelemetryName())
	}
	return o, nil
}

// SetColumnSink makes sink the operator's one consumer, in place of New's
// emit: every output row — a selection's, a window's sample, whichever
// path evaluated it — reaches it as columns, in order, and no row is built
// for a consumer that is itself columnar. A nil sink discards the output.
func (o *Operator) SetColumnSink(sink ColumnSink) { o.sink = sink }

// Stats returns a snapshot of the activity counters.
func (o *Operator) Stats() Stats { return o.stats }

// Process offers one input tuple, as a batch of one (see ProcessBatch).
func (o *Operator) Process(t tuple.Tuple) error {
	if err := o.checkArity(len(t)); err != nil {
		return err
	}
	if o.one == nil {
		o.one = tuple.NewBatch(o.plan.Schema, 1)
	}
	o.one.Reset()
	o.one.AppendRow(t)
	return o.ProcessBatch(o.one)
}

// checkArity refuses a tuple that does not have the schema's width,
// counting it in as the walk would have.
func (o *Operator) checkArity(fields int) error {
	if fields == o.plan.Schema.NumFields() {
		return nil
	}
	o.stats.TuplesIn++
	return fmt.Errorf("operator: tuple has %d fields, schema %s has %d",
		fields, o.plan.Schema.Name(), o.plan.Schema.NumFields())
}

// stampWindow anchors the window that just opened for its end-to-end
// latency, when a profile or a collector will want it at the flush.
func (o *Operator) stampWindow() {
	if o.prof != nil || o.om != nil {
		o.winStartNS = profile.Now()
	}
}

func addContrib(acc, v value.Value) value.Value {
	if v.IsNull() {
		return acc
	}
	if acc.IsNull() {
		return value.NewFloat(v.AsFloat())
	}
	return value.NewFloat(acc.AsFloat() + v.AsFloat())
}

// supergroupFor looks up or creates the supergroup keyed by vals, with
// state handoff from the previous window's supergroup of the same key.
func (o *Operator) supergroupFor(vals []value.Value) *supergroup {
	h := tuple.HashValues(vals)
	for _, sg := range o.sgNew[h] {
		if sg.key.EqualValues(vals) {
			return sg
		}
	}
	key := tuple.MakeKey(vals)
	sg := &supergroup{key: key}
	// State handoff: same non-ordered key in the previous window.
	var old *supergroup
	for _, cand := range o.sgOld[h] {
		if cand.key.Equal(key) {
			old = cand
			break
		}
	}
	if old != nil {
		// The old supergroup-group table's storage, its slots void since
		// the rotation, holds this window's.
		sg.groups, old.groups = old.groups[:0], nil
	}
	sg.states = make([]any, len(o.plan.States))
	for i, sd := range o.plan.States {
		var oldState any
		if old != nil {
			oldState = old.states[i]
		}
		sg.states[i] = sd.Type.Init(oldState)
	}
	sg.supers = make([]agg.Super, len(o.plan.Supers))
	for i, def := range o.plan.Supers {
		s, err := def.Spec.New(def.Consts)
		if err != nil {
			// Constants were validated at analysis time; this cannot
			// happen for plans produced by gsql.Analyze.
			panic(fmt.Sprintf("operator: superaggregate %s: %v", def.Display, err))
		}
		sg.supers[i] = s
	}
	o.sgNew[key.Hash()] = append(o.sgNew[key.Hash()], sg)
	o.sgList = append(o.sgList, sg)
	if old != nil && o.tel.EventsEnabled() {
		o.recordHandoff(sg)
	}
	return sg
}

// addGroup takes a slot for a new group of hash h and registers it in the
// group table and sg's supergroup-group table. The caller writes its key.
func (o *Operator) addGroup(sg *supergroup, h uint64) int32 {
	g := o.store.claim(h)
	o.groups.insert(h, g)
	sg.groups = append(sg.groups, g)
	return g
}

// createGroup makes the group keyed by row row of the group-by columns gb
// (hash h).
func (o *Operator) createGroup(sg *supergroup, h uint64, gb []*tuple.Column, row int) int32 {
	g := o.addGroup(sg, h)
	o.store.setKeyRow(g, gb, row)
	o.stats.GroupsCreated++
	return g
}

// cleanSupergroup runs the CLEANING BY predicate over every group of sg,
// evicting groups where it evaluates FALSE. tts are the traces of the row
// that set the cleaning off: each call the sweep makes is reported to them.
func (o *Operator) cleanSupergroup(sg *supergroup, tts []*tracing.TupleTrace) error {
	o.stats.Cleanings++
	if np := o.prof; np != nil {
		ct, before := profile.Now(), len(sg.groups)
		defer func() {
			o.nestedNS += np.Charge(profile.StageCleaning, ct, int64(before), int64(len(sg.groups))) - ct
		}()
	}
	var cleanStart time.Time
	if o.om != nil {
		cleanStart = time.Now()
		before := len(sg.groups)
		defer func() {
			kept := len(sg.groups)
			o.recordCleaning(sg, time.Since(cleanStart).Seconds(), before-kept, kept)
		}()
	}
	if o.plan.CleaningBy == nil {
		return nil
	}
	o.ctx = gsql.Ctx{States: sg.states, Supers: sg.supers, Aggs: &o.slot, Trace: o.sfunHook(tts)}
	// Per-group fast path: when the clause matched the sfun(agg-refs...)
	// shape, skip the scalar closure tree (same calls, same state
	// mutations, same results) and scan the groups a run at a time. The
	// groups a run rejects are evicted once its scan returns, each after
	// its verdict is reported: eviction touches the superaggregates and the
	// store, which the call does not read, and no SFUN state.
	var fast *gsql.GroupCall
	if o.vec.vp != nil {
		fast = o.vec.vp.CleanByCall
	}
	groups := sg.groups
	kept := groups[:0]
	if fast != nil {
		fast.Pass(o.store.aggs, groups, sg.supers)
	}
	for i := 0; i < len(groups); i++ {
		var pass bool
		var err error
		if fast != nil {
			var p int
			p, err = fast.Scan(sg.states, i, len(groups))
			for _, g := range groups[i:min(p, len(groups))] {
				if tts != nil {
					o.traceSfun(tts, fast.Fn, fast.State, value.NewBool(false), nil)
				}
				o.evictGroup(sg, g)
			}
			if p == len(groups) {
				break
			}
			i, pass = p, err == nil
			o.traceSfun(tts, fast.Fn, fast.State, value.NewBool(pass), err)
		} else {
			o.ctx.GroupVals = o.store.keyVals(groups[i], o.keyVals)
			o.slot.At = groups[i]
			var v value.Value
			v, err = o.plan.CleaningBy(&o.ctx)
			pass = v.Truth()
		}
		if err != nil {
			return fmt.Errorf("operator: CLEANING BY: %w", err)
		}
		if pass {
			kept = append(kept, groups[i])
		} else if fast == nil {
			o.evictGroup(sg, groups[i])
		}
	}
	sg.groups = kept
	return nil
}

// evictGroup removes group g from the group table, subtracts its
// superaggregate contributions and frees its slot for a later group of
// the window. (The caller maintains sg.groups.)
func (o *Operator) evictGroup(sg *supergroup, g int32) {
	o.groups.remove(o.store.hash[g], g)
	for i := range sg.supers {
		sg.supers[i].OnGroupRemove(o.store.contribs[i].Value(int(g)))
	}
	if o.tr != nil {
		if tts := o.traces[g]; len(tts) > 0 {
			o.traceEviction(sg, tts)
			delete(o.traces, g)
		}
	}
	o.stats.GroupsEvicted++
	o.store.release(g)
}

// flushWindow closes the open window: signals WindowFinal to all states,
// outputs the sample, then rotates the supergroup tables. The sample's rows
// — those evaluated before an error too — are with the sink before it
// returns.
func (o *Operator) flushWindow() error {
	np := o.prof
	ft, outBefore := np.Start(), o.stats.TuplesOut
	o.stats.Windows++
	o.ctx = gsql.Ctx{}
	for _, sg := range o.sgList {
		for i, sd := range o.plan.States {
			if sd.Type.WindowFinal != nil {
				sd.Type.WindowFinal(sg.states[i])
			}
		}
	}
	if err := o.drain(o.sample()); err != nil {
		return err
	}
	if o.om != nil {
		o.recordWindow(o.winBase)
	}
	groups := 0
	if np != nil {
		for _, sg := range o.sgList {
			groups += len(sg.groups)
		}
		np.SetOccupancy(int64(groups), int64(len(o.sgList)), o.groupBytes())
	}
	o.windowIdx++
	o.winBase = o.stats
	// Rotate: current supergroups become the "old" table for state
	// handoff; the group table clears (keeping its storage) and the store
	// rewinds, so the next window takes its slots in the same order.
	o.groups.clear()
	o.sgOld = o.sgNew
	o.sgNew = make(map[uint64][]*supergroup)
	o.sgOldList, o.sgList = o.sgList, o.sgOldList[:0]
	o.store.rewind()
	clear(o.traces)
	o.front.CloseWindow()
	if np != nil || o.om != nil {
		end := profile.Now()
		if np != nil {
			o.nestedNS += np.Charge(profile.StageFlush, ft, int64(groups), o.stats.TuplesOut-outBefore) - ft
		}
		if o.winStartNS != 0 {
			latency := float64(end-o.winStartNS) / 1e9
			if np != nil {
				np.ObserveWindow(latency)
			}
			if o.om != nil && o.om.latency != nil {
				o.om.latency.Observe(latency)
			}
		}
		o.winStartNS = 0
	}
	return nil
}

// sample applies HAVING to every group of the closing window (in
// supergroup, then group, insertion order) and outputs the ones that pass.
// When HAVING matched the per-group call shape it scans a supergroup's
// groups a run at a time, up to the next that passes, and tells the traced
// groups of the run what it decided; a group that passes is output before
// the next is judged, whatever its SELECT list calls.
func (o *Operator) sample() error {
	var fast *gsql.GroupCall
	if o.vec.vp != nil {
		fast = o.vec.vp.HavingCall
	}
	for _, sg := range o.sgList {
		o.ctx.States = sg.states
		o.ctx.Supers = sg.supers
		o.ctx.Aggs = &o.slot
		groups := sg.groups
		if fast != nil {
			fast.Pass(o.store.aggs, groups, sg.supers)
		}
		for i := 0; i < len(groups); i++ {
			if fast != nil {
				p, err := fast.Scan(sg.states, i, len(groups))
				for j := i; len(o.traces) > 0 && j <= min(p, len(groups)-1); j++ {
					o.traceVerdict(o.traces[groups[j]], fast.Fn, fast.State, j == p, err, (*tracing.TupleTrace).Having)
				}
				if err != nil {
					return fmt.Errorf("operator: HAVING: %w", err)
				}
				if p == len(groups) {
					break
				}
				i = p
			}
			g := groups[i]
			tts := o.traces[g]
			o.ctx.GroupVals = o.store.keyVals(g, o.keyVals)
			o.slot.At = g
			if fast == nil && o.plan.Having != nil {
				o.ctx.Trace = o.sfunHook(tts)
				v, err := o.plan.Having(&o.ctx)
				o.ctx.Trace = nil
				if err != nil {
					return fmt.Errorf("operator: HAVING: %w", err)
				}
				pass := v.Truth()
				for _, tt := range tts {
					tt.Having(o.trName, pass) // terminal when false
				}
				if !pass {
					continue
				}
			}
			if len(o.plan.Estimates) > 0 {
				// Deferred emission: the estimator columns need every
				// supergroup's post-HAVING sampling state, so the group is
				// buffered and output by finishEstimates below.
				if err := o.estBuffer(sg, g); err != nil {
					return err
				}
				continue
			}
			if err := o.output(&o.ctx, tts); err != nil {
				return err
			}
			if tts != nil {
				delete(o.traces, g) // staged
			}
		}
	}
	if len(o.plan.Estimates) > 0 {
		return o.finishEstimates()
	}
	return nil
}

// output evaluates the SELECT list into the output batch: no tuple is
// built, and the row leaves with the batch, when that holds
// tuple.DefaultBatchRows rows or at the next drain. A row that carries
// traces leaves with its batch too, its emit span recorded and the traces
// staged at its position in it for the sink to claim (Tracer.TakeStaged) —
// here, where the row is emitted, not where its group passed HAVING: an
// estimating plan does that a whole pass earlier.
func (o *Operator) output(ctx *gsql.Ctx, tts []*tracing.TupleTrace) error {
	for i, sel := range o.plan.SelectExprs {
		v, err := sel(ctx)
		if err != nil {
			return fmt.Errorf("operator: SELECT %s: %w", o.plan.SelectNames[i], err)
		}
		o.outRow[i] = v
	}
	if o.tr != nil && len(tts) > 0 {
		o.tr.Stage(o.trName, o.windowIdx, o.out[0].Len(), tts)
	}
	for i, c := range o.out {
		c.AppendValue(o.outRow[i])
	}
	o.stats.TuplesOut++
	if o.out[0].Len() == tuple.DefaultBatchRows {
		return o.drain(nil)
	}
	return nil
}

// send hands one run of output rows to the sink.
func (o *Operator) send(cols []*tuple.Column) error {
	if o.sink == nil {
		return nil
	}
	return o.sink(cols)
}

// drain hands the rows in the output batch to the sink and empties it. It
// returns the sink's error, or failing that err: what was output before an
// error goes out before the error is returned.
func (o *Operator) drain(err error) error {
	if o.out[0].Len() > 0 {
		if sinkErr := o.send(o.out); sinkErr != nil {
			err = sinkErr
		}
		for _, c := range o.out {
			c.Reset()
		}
	}
	return err
}

// Flush closes the current window at end of stream, emitting its sample.
func (o *Operator) Flush() error {
	if o.plan.IsSelection || !o.front.WindowOpen() {
		return nil
	}
	err := o.flushWindow()
	if err != nil {
		o.failTraces(nil)
	}
	return err
}
