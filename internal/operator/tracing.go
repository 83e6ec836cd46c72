package operator

import (
	"streamop/internal/gsql"
	"streamop/internal/sfun"
	"streamop/internal/tracing"
	"streamop/internal/value"
)

// Provenance-tracing instrumentation. Traces ride the batch by row
// position (see internal/tracing): the walk takes a row's traces at the top
// of its iteration, one comparison per row, and a traced row runs the
// kernels, scans and walk its neighbours run. The trace sites record what
// that path computes anyway: WHERE verdicts, group lookups, every stateful
// call (Ctx.Trace's hook for the closures; for a scan, what it decided,
// told to each traced row or group of its run once it returns), evictions,
// HAVING and emission, whose traces are staged by the row's position in
// the run handed to the sink. A group keeps the traces it
// absorbs in Operator.traces, off the store's columns, until they finish
// or are staged; a step that fails finishes what it holds (failTraces).

// SetTracer attaches a provenance tracer, labeling spans with name (the
// engine passes its node name). A nil tracer detaches.
func (o *Operator) SetTracer(tr *tracing.Tracer, name string) {
	o.tr = tr
	o.trName = name
}

// sfunHook builds the gsql.Ctx.Trace callback fanning stateful-function
// spans out to every trace on the current tuple or group; nil when there
// is none.
func (o *Operator) sfunHook(tts []*tracing.TupleTrace) func(fn, state string, v value.Value, err error) {
	if len(tts) == 0 {
		return nil
	}
	return func(fn, state string, v value.Value, err error) {
		o.traceSfun(tts, fn, state, v, err)
	}
}

// traceSfun records on tts one stateful call's outcome: its value v, or
// err.
func (o *Operator) traceSfun(tts []*tracing.TupleTrace, fn, state string, v value.Value, err error) {
	if len(tts) == 0 {
		return
	}
	outcome := v.String()
	if err != nil {
		outcome = "error: " + err.Error()
	}
	for _, tt := range tts {
		tt.Sfun(o.trName, fn, state, outcome)
	}
}

// traceWhere records the row's WHERE verdict on its traces.
func (o *Operator) traceWhere(tts []*tracing.TupleTrace, pass bool) {
	for _, tt := range tts {
		tt.Where(o.trName, pass)
	}
}

// traceScan tells the traced rows a WHERE scan over rows [from, to) that
// returned p with err covered what it decided, in row order (traceVerdict).
// tts are row from's traces if the caller took them, and next is the next
// traced row not taken; traceScan takes those up to p. It returns row p's
// traces, nil if none passed or it carries none, and the next traced row.
func (o *Operator) traceScan(vc *gsql.VecCall, tts []*tracing.TupleTrace, next, from, p, to int, err error) ([]*tracing.TupleTrace, int) {
	var at []*tracing.TupleTrace
	for row, last := from, min(p, to-1); ; {
		if tts != nil {
			if row == p {
				at = tts
			}
			o.traceVerdict(tts, vc.Fn, vc.State, row == p, err, (*tracing.TupleTrace).Where)
		}
		if next < 0 || next > last {
			return at, next
		}
		row = next
		tts, next = o.tr.TakeRow(o.trName)
	}
}

// traceVerdict records on tts, a row's or a group's traces, what a scan of
// fn decided for it: the call's span, then verdict's (a WHERE or HAVING
// span) — FALSE before the row the scan stopped at (at false), TRUE at it,
// or there only the call's span if the scan erred.
func (o *Operator) traceVerdict(tts []*tracing.TupleTrace, fn, state string, at bool, err error, verdict func(*tracing.TupleTrace, string, bool)) {
	if !at {
		err = nil
	}
	pass := at && err == nil
	o.traceSfun(tts, fn, state, value.NewBool(pass), err)
	if err != nil {
		return
	}
	for _, tt := range tts {
		verdict(tt, o.trName, pass)
	}
}

// liveThreshold polls the supergroup's observable states for a gauge
// named "threshold" — for the subset-sum family, the live z the cleaning
// phase is comparing against (§5.2). Zero when no state exposes one.
func (o *Operator) liveThreshold(sg *supergroup) float64 {
	var th float64
	for _, st := range sg.states {
		obs, ok := st.(sfun.Observable)
		if !ok {
			continue
		}
		obs.Gauges(func(name string, v float64) {
			if name == "threshold" {
				th = v
			}
		})
		if th != 0 {
			break
		}
	}
	return th
}

// traceEviction finishes tts, the traces of a group of sg: cleaning phase
// k (1-based within the window) evicted the group at the live threshold.
func (o *Operator) traceEviction(sg *supergroup, tts []*tracing.TupleTrace) {
	k := int(o.stats.Cleanings - o.winBase.Cleanings)
	th := o.liveThreshold(sg)
	key := sg.key.String()
	for _, tt := range tts {
		tt.Evicted(o.trName, k, th, key)
	}
}

// failTraces ends a failing step: the traces it took and did not stage —
// tts, the failing row's, and every group's — finish node_failed. The
// traces of rows it never took are the engine's (Tracer.FinishCurrent).
func (o *Operator) failTraces(tts []*tracing.TupleTrace) {
	if o.tr == nil {
		return
	}
	for _, tt := range tts {
		tt.Finish("node_failed")
	}
	for _, sg := range o.sgList {
		for _, g := range sg.groups {
			for _, tt := range o.traces[g] {
				tt.Finish("node_failed")
			}
		}
	}
	clear(o.traces)
}

// failRows is failTraces for a selection that fails at a row: tts, the
// row's traces, and kept, those of the kept rows after it.
func (o *Operator) failRows(tts []*tracing.TupleTrace, kept []tracing.RowTraces) {
	o.failTraces(tts)
	for _, k := range kept {
		o.failTraces(k.TTs)
	}
}
