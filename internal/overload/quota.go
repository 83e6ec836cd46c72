package overload

import (
	"fmt"
	"sync/atomic"
)

// Per-tenant admission quotas: the delivery-side counterpart of the ring
// gates. A ring gate protects the engine from the *feed*; a tenant gate
// protects the engine (and every other tenant) from one *query's output
// path* — a subscriber that asked for more rows than its budget allows.
// The paper's Gigascope runs many concurrent queries against one shared
// packet tap, so a single mis-sized standing query must not be able to
// monopolize the delivery path.
//
// The budget is a token bucket over rows and bytes, refilled from the
// *stream clock* (packet timestamps), not the wall clock: the same feed
// replayed through the same quotas makes the same admit/shed decisions,
// which keeps chaos tests exact and lets quota state checkpoint and
// resume bit-identically. Accounting follows the package invariant:
// offered == admitted + shed, always, with no unaccounted path.
//
// The companion max-subscriber-lag policy (Quota.WarnLag/DetachAfter) is
// enforced by the engine's delivery path per subscription: a subscriber
// that keeps losing rows is first flagged (warn), keeps shedding with
// exact counters, and is finally detached so its buffer is reclaimed and
// the pump never stalls on it. See docs/ROBUSTNESS.md.

// Quota is one standing query's delivery budget. The zero value means
// unlimited (no gate is created).
type Quota struct {
	// Rows is the admitted-row budget per second of stream time.
	// <= 0 leaves rows unlimited.
	Rows float64
	// Bytes is the admitted-byte budget per second of stream time,
	// measured over the engine's row encoding (see engine rowBytes).
	// <= 0 leaves bytes unlimited.
	Bytes float64
	// BurstSec is the bucket depth in seconds of budget: a tenant may
	// burst up to Rows*BurstSec rows (and Bytes*BurstSec bytes) after an
	// idle stretch. Default 1.
	BurstSec float64
	// WarnLag marks a subscription as lagging once it has lost this many
	// rows to its overflow policy (a "subscriber_lag" event fires once).
	// 0 disables the warning.
	WarnLag uint64
	// DetachAfter force-detaches a subscription once it has lost this
	// many rows: its channel closes, its buffer is reclaimed, and the
	// pump stops waiting on it (under Block the wait becomes bounded once
	// DetachAfter is set). 0 never detaches.
	DetachAfter uint64
}

// Enabled reports whether the quota carries a row or byte budget (the lag
// policy alone does not need a token bucket).
func (q Quota) Enabled() bool { return q.Rows > 0 || q.Bytes > 0 }

// LagPolicy reports whether the quota carries a subscriber-lag policy.
func (q Quota) LagPolicy() bool { return q.WarnLag > 0 || q.DetachAfter > 0 }

// Zero reports whether the quota is entirely unset (no gate, no policy).
func (q Quota) Zero() bool { return !q.Enabled() && !q.LagPolicy() }

// WithDefaults returns q with unset tuning fields filled.
func (q Quota) WithDefaults() Quota {
	if q.BurstSec <= 0 {
		q.BurstSec = 1
	}
	return q
}

// Validate rejects quotas that cannot express a sane budget.
func (q Quota) Validate() error {
	if q.Rows < 0 || q.Bytes < 0 {
		return fmt.Errorf("overload: quota budgets must be >= 0 (rows=%v bytes=%v)", q.Rows, q.Bytes)
	}
	if q.BurstSec < 0 {
		return fmt.Errorf("overload: quota burst must be >= 0 (burst_sec=%v)", q.BurstSec)
	}
	if q.WarnLag > 0 && q.DetachAfter > 0 && q.WarnLag > q.DetachAfter {
		return fmt.Errorf("overload: quota warn_lag (%d) must not exceed detach_after (%d)", q.WarnLag, q.DetachAfter)
	}
	return nil
}

// TenantGate enforces one Quota's token bucket. Admit belongs to the
// single pump goroutine that owns the delivery path; the counter and
// state accessors are safe from any goroutine (atomics the pump publishes
// as it goes), which is how /debug/state and the metric sync read a live
// gate.
type TenantGate struct {
	q Quota

	// Bucket state, pump-owned. lastRefill is the stream-clock nanosecond
	// of the previous refill; started latches on the first Admit so the
	// bucket opens full at whatever timestamp the stream begins.
	rowTokens  float64
	byteTokens float64
	lastRefill uint64
	started    bool

	offered       atomic.Uint64
	admitted      atomic.Uint64
	shed          atomic.Uint64
	admittedBytes atomic.Uint64
	shedBytes     atomic.Uint64
	throttled     atomic.Bool

	// onTransition, when non-nil, observes throttled-state changes
	// (the engine wires it to the telemetry event log). Pump goroutine.
	onTransition func(throttled bool)
}

// NewTenantGate returns a gate for q (defaults applied). Callers should
// only build one when q.Enabled().
func NewTenantGate(q Quota) *TenantGate {
	return &TenantGate{q: q.WithDefaults()}
}

// Quota returns the gate's effective (default-filled) configuration.
func (g *TenantGate) Quota() Quota { return g.q }

// OnTransition registers a throttled-state observer (pump goroutine).
func (g *TenantGate) OnTransition(fn func(throttled bool)) { g.onTransition = fn }

// burstRows is the bucket depth in rows (floored at one row so a
// fractional budget still makes progress).
func (g *TenantGate) burstRows() float64 {
	b := g.q.Rows * g.q.BurstSec
	if b < 1 {
		b = 1
	}
	return b
}

// burstBytes is the bucket depth in bytes (floored at one byte).
func (g *TenantGate) burstBytes() float64 {
	b := g.q.Bytes * g.q.BurstSec
	if b < 1 {
		b = 1
	}
	return b
}

// Admit decides one output row of the given encoded size at stream-clock
// time now (nanoseconds). It refills the bucket from the stream clock,
// then admits iff both budgets have tokens. Every call counts exactly one
// offered row as either admitted or shed. Pump goroutine only.
func (g *TenantGate) Admit(bytes int, now uint64) bool {
	g.offered.Add(1)
	if !g.started {
		g.started = true
		g.lastRefill = now
		g.rowTokens = g.burstRows()
		g.byteTokens = g.burstBytes()
	} else if now > g.lastRefill {
		dt := float64(now-g.lastRefill) / 1e9
		g.lastRefill = now
		if g.q.Rows > 0 {
			g.rowTokens += g.q.Rows * dt
			if max := g.burstRows(); g.rowTokens > max {
				g.rowTokens = max
			}
		}
		if g.q.Bytes > 0 {
			g.byteTokens += g.q.Bytes * dt
			if max := g.burstBytes(); g.byteTokens > max {
				g.byteTokens = max
			}
		}
	}
	ok := true
	if g.q.Rows > 0 && g.rowTokens < 1 {
		ok = false
	}
	if g.q.Bytes > 0 && g.byteTokens < float64(bytes) {
		// A row larger than the whole byte bucket would starve forever;
		// admit it when the bucket is full (it then drains the bucket).
		if g.byteTokens < g.burstBytes() {
			ok = false
		}
	}
	if !ok {
		g.shed.Add(1)
		g.shedBytes.Add(uint64(bytes))
		g.setThrottled(true)
		return false
	}
	if g.q.Rows > 0 {
		g.rowTokens--
	}
	if g.q.Bytes > 0 {
		g.byteTokens -= float64(bytes)
		if g.byteTokens < 0 {
			g.byteTokens = 0
		}
	}
	g.admitted.Add(1)
	g.admittedBytes.Add(uint64(bytes))
	g.setThrottled(false)
	return true
}

func (g *TenantGate) setThrottled(next bool) {
	if g.throttled.Swap(next) != next && g.onTransition != nil {
		g.onTransition(next)
	}
}

// Throttled reports whether the gate's most recent decision was a shed
// (any goroutine).
func (g *TenantGate) Throttled() bool { return g.throttled.Load() }

// Offered returns rows offered to the gate.
func (g *TenantGate) Offered() uint64 { return g.offered.Load() }

// Admitted returns rows the gate admitted to the delivery path.
func (g *TenantGate) Admitted() uint64 { return g.admitted.Load() }

// Shed returns rows the gate rejected.
func (g *TenantGate) Shed() uint64 { return g.shed.Load() }

// AdmittedBytes returns the encoded bytes of admitted rows.
func (g *TenantGate) AdmittedBytes() uint64 { return g.admittedBytes.Load() }

// ShedBytes returns the encoded bytes of shed rows.
func (g *TenantGate) ShedBytes() uint64 { return g.shedBytes.Load() }

// QuotaSnapshot is a tear-free copy of one tenant gate's observable
// state, the /debug/state "quotas" payload. The subscription-lag fields
// are filled by the engine (the gate does not track subscriptions).
type QuotaSnapshot struct {
	Query         string  `json:"query"`
	RowsPerSec    float64 `json:"rows_per_sec,omitempty"`
	BytesPerSec   float64 `json:"bytes_per_sec,omitempty"`
	BurstSec      float64 `json:"burst_sec,omitempty"`
	Throttled     bool    `json:"throttled"`
	Offered       uint64  `json:"offered"`
	Admitted      uint64  `json:"admitted"`
	Shed          uint64  `json:"shed"`
	AdmittedBytes uint64  `json:"admitted_bytes"`
	ShedBytes     uint64  `json:"shed_bytes"`
	WarnLag       uint64  `json:"warn_lag,omitempty"`
	DetachAfter   uint64  `json:"detach_after,omitempty"`
	Subscribers   int     `json:"subscribers"`
	Lagging       int     `json:"lagging"`
	Detached      uint64  `json:"detached"`
}

// Snapshot returns the gate's counters labeled with the owning query.
func (g *TenantGate) Snapshot(query string) QuotaSnapshot {
	return QuotaSnapshot{
		Query:         query,
		RowsPerSec:    g.q.Rows,
		BytesPerSec:   g.q.Bytes,
		BurstSec:      g.q.BurstSec,
		Throttled:     g.Throttled(),
		Offered:       g.Offered(),
		Admitted:      g.Admitted(),
		Shed:          g.Shed(),
		AdmittedBytes: g.AdmittedBytes(),
		ShedBytes:     g.ShedBytes(),
		WarnLag:       g.q.WarnLag,
		DetachAfter:   g.q.DetachAfter,
	}
}
