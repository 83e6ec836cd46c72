package operator

import (
	"streamop/internal/sfun"
	"streamop/internal/tracing"
	"streamop/internal/value"
)

// Provenance-tracing instrumentation. Traces ride the batch by row
// position (see internal/tracing): the walk takes a row's traces at the top
// of its iteration, one comparison per row, and a traced row runs the
// kernels and walk its neighbours run. The trace sites record what that
// path computes anyway: WHERE verdicts, group lookups, every stateful call
// (Ctx.Trace's hook, which the VecCall and GroupCall sites call too),
// evictions, HAVING and emission, whose traces are staged by the row's
// position in the run handed to the sink.

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
	node := o.trName
	return func(fn, state string, v value.Value, err error) {
		outcome := v.String()
		if err != nil {
			outcome = "error: " + err.Error()
		}
		for _, tt := range tts {
			tt.Sfun(node, fn, state, outcome)
		}
	}
}

// traceWhere records the row's WHERE verdict on its traces.
func (o *Operator) traceWhere(tts []*tracing.TupleTrace, pass bool) {
	for _, tt := range tts {
		tt.Where(o.trName, pass)
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

// traceEviction finishes every trace on g: cleaning phase k (1-based
// within the window) evicted its group at the live threshold.
func (o *Operator) traceEviction(sg *supergroup, g *group) {
	k := int(o.stats.Cleanings - o.winBase.Cleanings)
	th := o.liveThreshold(sg)
	key := sg.key.String()
	for _, tt := range g.traces {
		tt.Evicted(o.trName, k, th, key)
	}
}
