package operator

import (
	"streamop/internal/sfun"
	"streamop/internal/tracing"
	"streamop/internal/value"
)

// Provenance-tracing instrumentation. The engine samples tuples at the
// source (see internal/tracing) and marks the sampled one as the tracer's
// current context around the batch of one it sends it in; the walk then
// runs in closure mode and records spans at each decision point — WHERE, group-table lookup, stateful-function calls,
// cleaning evictions, HAVING, emission — and every traced tuple ends with
// exactly one terminal disposition. With no tracer attached (the default)
// the per-tuple cost is a single nil check on the admit path.

// SetTracer attaches a provenance tracer, labeling spans with name (the
// engine passes its node name). A nil tracer detaches.
func (o *Operator) SetTracer(tr *tracing.Tracer, name string) {
	o.tr = tr
	o.trName = name
}

// curTraces returns the traces riding on the tuple being processed, nil
// for the common untraced case.
func (o *Operator) curTraces() []*tracing.TupleTrace {
	if o.tr == nil {
		return nil
	}
	return o.tr.Current()
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
