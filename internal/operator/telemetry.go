package operator

import (
	"fmt"
	"sync/atomic"

	"streamop/internal/profile"
	"streamop/internal/sfun"
	"streamop/internal/telemetry"
)

// Telemetry instrumentation. All recording happens at window and cleaning
// boundaries — never per tuple — so an operator without a collector (the
// default) pays nothing, and an instrumented one pays a few atomic
// operations per window. The per-window series reproduce the paper's
// figures live: sample size per window (Figs. 3–4), cleaning phases and
// evictions (Fig. 4), and — through sfun.Observable states — the
// subset-sum threshold trajectory of §5.2.

// opMetrics caches the operator's metric handles so the flush path does no
// registry lookups.
type opMetrics struct {
	tuplesIn, tuplesAccepted, tuplesOut  *telemetry.Counter
	groupsCreated, groupsEvicted         *telemetry.Counter
	cleanings, windows                   *telemetry.Counter
	winSample, winGroups, winSupergroups *telemetry.Series
	winCleanings, winEvictions           *telemetry.Series
	cleanDur                             *telemetry.Histogram
	cleanEvict                           *telemetry.Histogram
	latency                              *telemetry.Histogram
	sfunSeries                           *telemetry.SeriesVec
	estStderr, estESS                    *telemetry.SeriesVec

	synced Stats // counter values already pushed to the registry
}

// opSeq numbers operators that pick up the ambient default collector, so
// their metric children do not collide.
var opSeq atomic.Int64

// SetCollector attaches a telemetry collector, labeling every metric with
// name (the engine passes its node name). A nil collector detaches.
func (o *Operator) SetCollector(c *telemetry.Collector, name string) {
	if c == nil || !c.Enabled() {
		o.tel, o.om, o.telName = nil, nil, ""
		return
	}
	o.tel = c
	o.telName = name
	r := c.Registry()
	cleanDurBounds := []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1}
	cleanEvictBounds := []float64{10, 100, 1000, 10000, 100000}
	o.om = &opMetrics{
		tuplesIn:       r.CounterVec("streamop_operator_tuples_in_total", "tuples offered to the operator (synced at window/cleaning boundaries)", "node").With(name),
		tuplesAccepted: r.CounterVec("streamop_operator_tuples_accepted_total", "tuples passing WHERE", "node").With(name),
		tuplesOut:      r.CounterVec("streamop_operator_tuples_out_total", "output sample rows emitted", "node").With(name),
		groupsCreated:  r.CounterVec("streamop_operator_groups_created_total", "group-table insertions", "node").With(name),
		groupsEvicted:  r.CounterVec("streamop_operator_groups_evicted_total", "groups evicted by cleaning phases", "node").With(name),
		cleanings:      r.CounterVec("streamop_operator_cleanings_total", "cleaning phases triggered", "node").With(name),
		windows:        r.CounterVec("streamop_operator_windows_total", "time windows flushed", "node").With(name),
		winSample:      r.SeriesVec("streamop_window_sample_size", "output sample size per window", 0, "node").With(name),
		winGroups:      r.SeriesVec("streamop_window_groups", "group-table occupancy at window flush", 0, "node").With(name),
		winSupergroups: r.SeriesVec("streamop_window_supergroups", "supergroup-table occupancy at window flush", 0, "node").With(name),
		winCleanings:   r.SeriesVec("streamop_window_cleanings", "cleaning phases per window", 0, "node").With(name),
		winEvictions:   r.SeriesVec("streamop_window_evictions", "groups evicted per window", 0, "node").With(name),
		cleanDur:       r.HistogramVec("streamop_cleaning_duration_seconds", "duration of one cleaning phase", cleanDurBounds, "node").With(name),
		cleanEvict:     r.HistogramVec("streamop_cleaning_evictions", "groups evicted by one cleaning phase", cleanEvictBounds, "node").With(name),
		latency:        r.HistogramVec("streamop_window_latency_seconds", "end-to-end window latency: first tuple of the window to flush complete", profile.LatencyBounds, "node").With(name),
		sfunSeries:     r.SeriesVec("streamop_sfun_gauge", "per-window SFUN state gauges (first supergroup in insertion order)", 0, "node", "state", "gauge"),
		estStderr:      r.SeriesVec("streamop_estimator_stderr", "per-window Horvitz-Thompson standard error of each ESTIMATE column", 0, "node", "column"),
		estESS:         r.SeriesVec("streamop_estimator_ess", "per-window effective sample size (Kish) of each ESTIMATE column", 0, "node", "column"),
	}
	o.om.synced = Stats{}
	o.syncCounters()
	// Publish an initial snapshot so /debug/state never reads nil for an
	// instrumented operator, even before the first boundary; estimating
	// plans publish /debug/accuracy under the same guarantee.
	o.publishDebug("attach")
	if o.Estimating() {
		o.publishAccuracy("attach")
	}
}

// syncCounters pushes the operator's plain counters into the registry as
// deltas since the last sync.
func (o *Operator) syncCounters() {
	m := o.om
	if m == nil {
		return
	}
	s := o.Stats()
	m.tuplesIn.Add(s.TuplesIn - m.synced.TuplesIn)
	m.tuplesAccepted.Add(s.TuplesAccepted - m.synced.TuplesAccepted)
	m.tuplesOut.Add(s.TuplesOut - m.synced.TuplesOut)
	m.groupsCreated.Add(s.GroupsCreated - m.synced.GroupsCreated)
	m.groupsEvicted.Add(s.GroupsEvicted - m.synced.GroupsEvicted)
	m.cleanings.Add(s.Cleanings - m.synced.Cleanings)
	m.windows.Add(s.Windows - m.synced.Windows)
	m.synced = s
}

// recordWindow captures the closing window's telemetry. base is the
// operator's counters as of the previous flush; the deltas are this
// window's activity. Called from flushWindow after the HAVING pass emits
// the sample and before the tables rotate.
func (o *Operator) recordWindow(base Stats) {
	idx := float64(o.windowIdx)
	sample := o.out.n - base.TuplesOut
	groups := (o.stats.GroupsCreated - base.GroupsCreated) - (o.stats.GroupsEvicted - base.GroupsEvicted)
	cleanings := o.stats.Cleanings - base.Cleanings
	evicted := o.stats.GroupsEvicted - base.GroupsEvicted

	if o.tel.DebugActive() {
		o.publishDebug("window_flush")
	}

	m := o.om
	m.winSample.Append(idx, float64(sample))
	m.winGroups.Append(idx, float64(groups))
	m.winSupergroups.Append(idx, float64(len(o.sgList)))
	m.winCleanings.Append(idx, float64(cleanings))
	m.winEvictions.Append(idx, float64(evicted))
	// Estimator gauges: finishEstimates finalized estLast for this window
	// just before recordWindow runs.
	for i, r := range o.estLast {
		col := o.plan.Estimates[i].Name
		m.estStderr.With(o.telName, col).Append(idx, r.Stderr)
		m.estESS.With(o.telName, col).Append(idx, r.ESS)
	}
	o.syncCounters()

	// SFUN gauges: poll each state slot of the first supergroup (insertion
	// order) implementing sfun.Observable. Single-supergroup queries — the
	// paper's dynamic subset-sum shape — observe their one state; with
	// many supergroups this is the window's first, a stable exemplar.
	var gauges map[string]float64
	if o.tel.EventsEnabled() {
		gauges = make(map[string]float64)
	}
	if len(o.sgList) > 0 {
		sg := o.sgList[0]
		for i, sd := range o.plan.States {
			obs, ok := sg.states[i].(sfun.Observable)
			if !ok {
				continue
			}
			state := sd.Type.Name
			obs.Gauges(func(gauge string, v float64) {
				m.sfunSeries.With(o.telName, state, gauge).Append(idx, v)
				if gauges != nil {
					gauges[state+"."+gauge] = v
				}
			})
		}
	}

	if o.tel.EventsEnabled() {
		fields := map[string]any{
			"node":        o.telName,
			"window":      o.windowIdx,
			"sample_size": sample,
			"groups":      groups,
			"supergroups": len(o.sgList),
			"tuples_in":   o.stats.TuplesIn - base.TuplesIn,
			"accepted":    o.stats.TuplesAccepted - base.TuplesAccepted,
			"cleanings":   cleanings,
			"evicted":     evicted,
		}
		if len(gauges) > 0 {
			fields["gauges"] = gauges
		}
		o.tel.Emit("window_flush", fields)
	}
}

// recordCleaning captures one cleaning phase (duration in seconds,
// evictions and survivors) on sg.
func (o *Operator) recordCleaning(sg *supergroup, seconds float64, evicted, kept int) {
	o.om.cleanDur.Observe(seconds)
	o.om.cleanEvict.Observe(float64(evicted))
	o.syncCounters()
	if o.tel.DebugActive() {
		o.publishDebug("cleaning")
	}
	if o.tel.EventsEnabled() {
		o.tel.Emit("cleaning", map[string]any{
			"node":        o.telName,
			"window":      o.windowIdx,
			"supergroup":  sg.key.String(),
			"duration_ns": int64(seconds * 1e9),
			"evicted":     evicted,
			"kept":        kept,
		})
	}
}

// recordHandoff logs a supergroup state handoff (a new window's supergroup
// inheriting the previous window's equivalent state, §6.2).
func (o *Operator) recordHandoff(sg *supergroup) {
	o.tel.Emit("state_handoff", map[string]any{
		"node":       o.telName,
		"window":     o.windowIdx,
		"supergroup": sg.key.String(),
		"states":     len(sg.states),
	})
}

// defaultTelemetryName labels operators that adopt the ambient collector.
func defaultTelemetryName() string {
	return fmt.Sprintf("op%d", opSeq.Add(1))
}
