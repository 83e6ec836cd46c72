package operator

import (
	"fmt"
	"sync/atomic"

	"streamop/internal/checkpoint"
	"streamop/internal/estimate"
	"streamop/internal/sfun"
	"streamop/internal/tracing"
	"streamop/internal/value"
)

// Estimator wiring for ESTIMATE … WITH ERROR plans. The estimator is
// window-scoped: during the HAVING pass each passing group's estimate
// weights are evaluated and the group is buffered instead of emitted;
// once every supergroup has finished its pass — so end-of-window
// subsampling (ssfinal_clean and friends) has settled every sampling
// state on its final threshold — each buffered weight is priced with its
// supergroup's inclusion probability (the first state implementing
// sfun.Inclusion, in plan order; certainly-included when none does) and
// folded into a per-column Horvitz–Thompson accumulator. The finalized
// (estimate, stderr, 95% CI, effective sample size) tuple fills the five
// estimator columns of every row the window then emits, in the exact
// order the non-estimating path would have emitted them.
//
// Because the pass is single and emission merely deferred, HAVING's
// side-effecting stateful calls still run exactly once per group, and a
// non-estimating plan takes none of these paths.

// estHistoryCap bounds the per-operator accuracy history ring.
const estHistoryCap = 64

// estPending is one HAVING-passing group awaiting deferred emission. Its
// estimate weights, captured during the pass, live at wOff in the
// operator's window-scoped flat pool (o.estWeights) — an offset rather
// than a slice, because the pool's backing array may move as later groups
// append to it.
type estPending struct {
	sg   *supergroup
	g    int32 // the group's slot
	wOff int
}

// AccuracyColumn is one ESTIMATE column's finalized estimator output for
// one window.
type AccuracyColumn struct {
	Column   string  `json:"column"`
	Expr     string  `json:"expr"`
	Estimate float64 `json:"estimate"`
	Stderr   float64 `json:"stderr"`
	CILo     float64 `json:"ci_lo"`
	CIHi     float64 `json:"ci_hi"`
	ESS      float64 `json:"ess"`
	N        int64   `json:"n"`
}

// AccuracyWindow is the estimator output of one flushed window.
type AccuracyWindow struct {
	Window  int64            `json:"window"`
	Columns []AccuracyColumn `json:"columns"`
}

// AccuracyState is the /debug/accuracy payload for one operator: the most
// recently flushed window's estimator columns plus a bounded history ring
// (oldest first).
type AccuracyState struct {
	At      string           `json:"at"` // boundary kind: attach, window_flush, restore
	Window  int64            `json:"window"`
	Columns []AccuracyColumn `json:"columns,omitempty"`
	History []AccuracyWindow `json:"history,omitempty"`
}

type accuracyPublisher struct {
	ptr atomic.Pointer[AccuracyState]
}

// Estimating reports whether the operator's plan carries ESTIMATE items.
func (o *Operator) Estimating() bool { return len(o.plan.Estimates) > 0 }

// AccuracySnapshot returns the most recently published accuracy snapshot,
// nil for non-estimating plans or before any publish. Safe from any
// goroutine.
func (o *Operator) AccuracySnapshot() *AccuracyState {
	return o.accuracy.ptr.Load()
}

// estBuffer evaluates the estimate weights of the current HAVING-passing
// group under o.ctx and defers its emission. Called from the flush pass.
func (o *Operator) estBuffer(sg *supergroup, g int32) error {
	off := len(o.estWeights)
	for i := range o.plan.Estimates {
		def := &o.plan.Estimates[i]
		v, err := def.Weight(&o.ctx)
		if err != nil {
			o.estWeights = o.estWeights[:off]
			return fmt.Errorf("operator: ESTIMATE %s: %w", def.Display, err)
		}
		o.estWeights = append(o.estWeights, v.AsFloat())
	}
	o.estPending = append(o.estPending, estPending{sg: sg, g: g, wOff: off})
	return nil
}

// inclusionOf prices weight w against the first sampling state able to
// report an inclusion probability; a supergroup with no pricing state is
// an exact (unsampled) population.
func inclusionOf(states []any, w float64) float64 {
	for _, st := range states {
		inc, ok := st.(sfun.Inclusion)
		if !ok {
			continue
		}
		if p, priced := inc.Inclusion(w); priced {
			return p
		}
	}
	return 1
}

// finishEstimates finalizes the window's estimators and emits the
// buffered groups with the estimator columns attached. Called from
// flushWindow after the HAVING pass over every supergroup and before
// telemetry records the window.
func (o *Operator) finishEstimates() error {
	nEst := len(o.plan.Estimates)
	if o.estAccs == nil {
		o.estAccs = make([]estimate.Accumulator, nEst)
	}
	for i := range o.estAccs {
		o.estAccs[i].Reset()
	}
	for _, p := range o.estPending {
		w := o.estWeights[p.wOff : p.wOff+nEst]
		for i := range o.estAccs {
			o.estAccs[i].Add(w[i], inclusionOf(p.sg.states, w[i]))
		}
	}

	cols := make([]AccuracyColumn, nEst)
	est := make([]value.Value, nEst*5)
	o.estLast = make([]estimate.Result, nEst)
	for i := range o.estAccs {
		r := o.estAccs[i].Result()
		o.estLast[i] = r
		def := &o.plan.Estimates[i]
		cols[i] = AccuracyColumn{
			Column: def.Name, Expr: def.Display,
			Estimate: r.Estimate, Stderr: r.Stderr,
			CILo: r.CILo, CIHi: r.CIHi, ESS: r.ESS, N: r.N,
		}
		est[i*5+0] = value.NewFloat(r.Estimate)
		est[i*5+1] = value.NewFloat(r.Stderr)
		est[i*5+2] = value.NewFloat(r.CILo)
		est[i*5+3] = value.NewFloat(r.CIHi)
		est[i*5+4] = value.NewFloat(r.ESS)
	}

	// History ring: plain append while under capacity; dropping the oldest
	// entry reallocates the backing array so published snapshots (which
	// share it) never observe an in-place shift.
	win := AccuracyWindow{Window: o.windowIdx, Columns: cols}
	if len(o.estHist) >= estHistoryCap {
		o.estHist = append(append(make([]AccuracyWindow, 0, len(o.estHist)), o.estHist[1:]...), win)
	} else {
		o.estHist = append(o.estHist, win)
	}

	o.ctx.Est = est
	o.ctx.Aggs = &o.slot
	for _, p := range o.estPending {
		o.ctx.States = p.sg.states
		o.ctx.Supers = p.sg.supers
		o.ctx.GroupVals = o.store.keyVals(p.g, o.keyVals)
		o.slot.At = p.g
		var tts []*tracing.TupleTrace
		if o.tr != nil {
			tts = o.traces[p.g]
		}
		if err := o.output(&o.ctx, tts); err != nil {
			return err
		}
		if len(tts) > 0 {
			delete(o.traces, p.g) // staged
		}
	}
	for i := range o.estPending {
		o.estPending[i] = estPending{}
	}
	o.estPending = o.estPending[:0]
	o.estWeights = o.estWeights[:0]

	if o.tel.DebugActive() {
		o.publishAccuracy("window_flush")
	}
	return nil
}

// publishAccuracy publishes an immutable accuracy snapshot through the
// atomic pointer, mirroring publishDebug's boundary discipline.
func (o *Operator) publishAccuracy(at string) {
	st := &AccuracyState{At: at, Window: o.windowIdx, History: o.estHist[:len(o.estHist):len(o.estHist)]}
	if n := len(o.estHist); n > 0 {
		st.Columns = o.estHist[n-1].Columns
	}
	o.accuracy.ptr.Store(st)
}

// snapshotEstimates / restoreEstimates checkpoint the estimator history so
// a resumed run serves the same /debug/accuracy series and estimator
// gauges an uninterrupted run would. (The accumulators themselves are
// window-transient: they are reset and refilled inside each flush, so a
// tuple-boundary snapshot never has partial accumulator state to save.)
func (o *Operator) snapshotEstimates(e *checkpoint.Encoder) {
	e.Len(len(o.plan.Estimates))
	e.Len(len(o.estHist))
	for _, w := range o.estHist {
		e.I64(w.Window)
		e.Len(len(w.Columns))
		for _, c := range w.Columns {
			e.String(c.Column)
			e.String(c.Expr)
			e.F64(c.Estimate)
			e.F64(c.Stderr)
			e.F64(c.CILo)
			e.F64(c.CIHi)
			e.F64(c.ESS)
			e.I64(c.N)
		}
	}
	e.Len(len(o.estLast))
	for _, r := range o.estLast {
		e.F64(r.Estimate)
		e.F64(r.Stderr)
		e.F64(r.CILo)
		e.F64(r.CIHi)
		e.F64(r.ESS)
		e.I64(r.N)
	}
}

func (o *Operator) restoreEstimates(d *checkpoint.Decoder) error {
	if n := d.Len(); d.Err() == nil && n != len(o.plan.Estimates) {
		return fmt.Errorf("operator: snapshot has %d estimates, plan has %d", n, len(o.plan.Estimates))
	}
	nHist := d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	if nHist > estHistoryCap {
		return fmt.Errorf("operator: snapshot estimator history %d exceeds cap %d", nHist, estHistoryCap)
	}
	o.estHist = nil
	for i := 0; i < nHist && d.Err() == nil; i++ {
		w := AccuracyWindow{Window: d.I64()}
		nCols := d.Len()
		if d.Err() != nil {
			return d.Err()
		}
		if nCols != len(o.plan.Estimates) {
			return fmt.Errorf("operator: snapshot history window has %d estimator columns, plan has %d",
				nCols, len(o.plan.Estimates))
		}
		for j := 0; j < nCols && d.Err() == nil; j++ {
			w.Columns = append(w.Columns, AccuracyColumn{
				Column: d.String(), Expr: d.String(),
				Estimate: d.F64(), Stderr: d.F64(),
				CILo: d.F64(), CIHi: d.F64(), ESS: d.F64(), N: d.I64(),
			})
		}
		o.estHist = append(o.estHist, w)
	}
	nLast := d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	if nLast != 0 && nLast != len(o.plan.Estimates) {
		return fmt.Errorf("operator: snapshot has %d last results, plan has %d estimates", nLast, len(o.plan.Estimates))
	}
	o.estLast = nil
	for i := 0; i < nLast && d.Err() == nil; i++ {
		o.estLast = append(o.estLast, estimate.Result{
			Estimate: d.F64(), Stderr: d.F64(),
			CILo: d.F64(), CIHi: d.F64(), ESS: d.F64(), N: d.I64(),
		})
	}
	if d.Err() == nil && len(o.estHist) > 0 {
		o.publishAccuracy("restore")
	}
	return d.Err()
}

// LastEstimates returns the finalized estimator results of the most
// recently flushed window, one per ESTIMATE item in plan order; nil
// before the first flush.
func (o *Operator) LastEstimates() []estimate.Result { return o.estLast }
