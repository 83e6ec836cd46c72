package operator

import (
	"sync/atomic"

	"streamop/internal/sfun"
	"streamop/internal/telemetry"
)

// Boundary-consistent /debug/state snapshots. The operator's tables are
// owned by the processing goroutine, so a live HTTP handler can never walk
// them directly; instead the operator publishes an immutable DebugState
// through an atomic pointer at the points where the tables are already
// being visited — window flushes and cleaning phases — and only while a
// debug handler is actually serving (telemetry.Collector.DebugActive).
// Readers get the state as of the most recent boundary, which is the
// strongest consistency the single-threaded engine can offer without
// stalling the stream.

// debugTopK bounds the per-snapshot top-groups list.
const debugTopK = 10

// DebugGroup is one group in a DebugState's top-K list, ranked by its
// first aggregate's numeric value.
type DebugGroup struct {
	Key  string            `json:"key"`
	Rank float64           `json:"rank"`
	Aggs map[string]string `json:"aggs,omitempty"`
}

// DebugLatency carries interpolated window-latency quantiles (seconds),
// present once at least one window has flushed on an instrumented
// operator.
type DebugLatency struct {
	Windows int64   `json:"windows"`
	P50     float64 `json:"p50_seconds"`
	P95     float64 `json:"p95_seconds"`
	P99     float64 `json:"p99_seconds"`
}

// DebugState is a boundary-consistent snapshot of the operator's tables.
type DebugState struct {
	At          string             `json:"at"` // boundary kind: attach, cleaning, window_flush
	Window      int64              `json:"window"`
	Groups      int                `json:"groups"`
	Supergroups int                `json:"supergroups"`
	Stats       Stats              `json:"stats"`
	Latency     *DebugLatency      `json:"window_latency,omitempty"`
	SfunGauges  map[string]float64 `json:"sfun_gauges,omitempty"`
	TopGroups   []DebugGroup       `json:"top_groups,omitempty"`
}

// rankedGroup is a group's slot with the value publishDebug ranks it by.
type rankedGroup struct {
	g    int32
	rank float64
}

// insertTop offers r to top, the debugTopK highest-ranked groups seen so
// far in descending order, and returns the list with r in its place or
// left out. Of equal ranks the one offered first stands first and is the
// one kept — the order a stable sort of every group would give, without
// sorting a window's hundred thousand groups on the pump to show ten. top
// must have capacity debugTopK.
func insertTop(top []rankedGroup, r rankedGroup) []rankedGroup {
	if len(top) == debugTopK {
		if !(r.rank > top[debugTopK-1].rank) {
			return top
		}
		top = top[:debugTopK-1]
	}
	i := len(top)
	for i > 0 && r.rank > top[i-1].rank {
		i--
	}
	top = append(top, r)
	copy(top[i+1:], top[i:])
	top[i] = r
	return top
}

type debugPublisher struct {
	ptr atomic.Pointer[DebugState]
}

// DebugSnapshot returns the most recently published boundary snapshot,
// nil when none has been published. Safe from any goroutine.
func (o *Operator) DebugSnapshot() *DebugState {
	return o.debug.ptr.Load()
}

// publishDebug builds and publishes a snapshot at a table-visit boundary.
// Callers gate on o.tel.DebugActive() (except the initial publish at
// collector attach, which guarantees DebugSnapshot is never nil for an
// instrumented operator).
func (o *Operator) publishDebug(at string) {
	st := &DebugState{
		At:          at,
		Window:      o.windowIdx,
		Supergroups: len(o.sgList),
		Stats:       o.stats,
	}

	// Window-latency quantiles from whichever histogram is live: the
	// telemetry family when a collector is attached, the profiler's
	// otherwise. Both use profile.LatencyBounds, so the estimates agree.
	var lh *telemetry.Histogram
	if o.om != nil {
		lh = o.om.latency
	} else if o.prof != nil {
		lh = o.prof.Latency()
	}
	if lh != nil {
		if n := lh.Count(); n > 0 {
			st.Latency = &DebugLatency{
				Windows: n,
				P50:     lh.Quantile(0.50),
				P95:     lh.Quantile(0.95),
				P99:     lh.Quantile(0.99),
			}
		}
	}

	// SFUN gauges of every observable state on the first supergroup
	// (insertion order), mirroring recordWindow's exemplar choice.
	if len(o.sgList) > 0 {
		sg := o.sgList[0]
		for i, sd := range o.plan.States {
			obs, ok := sg.states[i].(sfun.Observable)
			if !ok {
				continue
			}
			state := sd.Type.Name
			obs.Gauges(func(gauge string, v float64) {
				if st.SfunGauges == nil {
					st.SfunGauges = make(map[string]float64)
				}
				st.SfunGauges[state+"."+gauge] = v
			})
		}
	}

	// Occupancy and top-K groups by first-aggregate value across all
	// supergroups of the open window. Groups are ranked by slot first;
	// only the K winners pay for key/aggregate rendering.
	top := make([]rankedGroup, 0, debugTopK)
	aggs := o.store.aggs
	for _, sg := range o.sgList {
		st.Groups += len(sg.groups)
		for _, g := range sg.groups {
			var rank float64
			if len(aggs) > 0 {
				rank = aggs[0].Value(g).AsFloat()
			}
			top = insertTop(top, rankedGroup{g, rank})
		}
	}
	for _, r := range top {
		dg := DebugGroup{Key: o.store.key(r.g), Rank: r.rank}
		if len(aggs) > 0 {
			dg.Aggs = make(map[string]string, len(aggs))
			for j, a := range aggs {
				dg.Aggs[o.plan.Aggs[j].Display] = a.Value(r.g).String()
			}
		}
		st.TopGroups = append(st.TopGroups, dg)
	}

	o.debug.ptr.Store(st)
}
