package engine

import (
	"sort"
	"time"

	"streamop/internal/overload"
	"streamop/internal/telemetry"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// Per-tenant delivery quotas (tentpole of the durability PR; the token
// bucket itself lives in internal/overload). The pump consults a query's
// TenantGate before paying any delivery cost, and walks the
// warn → shed-with-counters → detach ladder per subscription, so one
// over-budget or dead tenant cannot stall the shared feed or starve the
// other standing queries. All of it runs on the pump goroutine; the
// observable state is published through atomics, the streamop_quota_*
// gauges and the /debug/state "quotas" block.

// detachWait bounds a Block subscriber's backpressure, per row or per
// frame, once its query carries a DetachAfter policy: a wait that times
// out counts the row, or the frame's rows, as shed, and enough shed rows
// detach the subscriber. Without the policy Block keeps its
// indefinite-backpressure contract.
const detachWait = 2 * time.Millisecond

// rowBytes estimates row i's encoded size for the byte budget: eight
// bytes per value plus string payloads — the same order as the row's wire
// encoding, cheap enough for the delivery hot path.
func rowBytes(cols []*tuple.Column, i int) int {
	n := 8 * len(cols)
	for _, c := range cols {
		if c.Kinds()[i] == value.String {
			n += len(c.Str(i))
		}
	}
	return n
}

// blockWait returns the backpressure bound, per row or per frame, for
// this query's subscriptions (0 = indefinite, the plain Block contract).
func (h *QueryHandle) blockWait() time.Duration {
	if h.block && h.quota.DetachAfter > 0 {
		return detachWait
	}
	return 0
}

// Quota returns the query's effective (default-filled) quota; the zero
// value means unlimited.
func (h *QueryHandle) Quota() overload.Quota { return h.quota }

// QuotaShed returns rows the query's tenant gate shed (0 without a
// row/byte budget).
func (h *QueryHandle) QuotaShed() uint64 {
	if h.gate == nil {
		return 0
	}
	return h.gate.Shed()
}

// DetachedSubs returns subscriptions the pump force-detached under the
// DetachAfter policy.
func (h *QueryHandle) DetachedSubs() uint64 { return h.detached.Load() }

// QuotaState returns the query's live quota snapshot — the same shape
// /debug/state serves under "quotas". Safe from any goroutine; the zero
// snapshot (plus subscriber counts) comes back for a query with no quota.
func (h *QueryHandle) QuotaState() overload.QuotaSnapshot {
	var snap overload.QuotaSnapshot
	if h.gate != nil {
		snap = h.gate.Snapshot(h.name)
	} else {
		q := h.quota
		snap = overload.QuotaSnapshot{Query: h.name, WarnLag: q.WarnLag, DetachAfter: q.DetachAfter, BurstSec: q.BurstSec}
	}
	snap.Subscribers, snap.Lagging = h.subLagCounts()
	snap.Detached = h.detached.Load()
	return snap
}

// noteSubLag advances one subscription along the lag ladder after it
// lost a row. Pump goroutine only.
func (h *QueryHandle) noteSubLag(s *Subscription) {
	lost := s.dropped.Load()
	q := h.quota
	if q.WarnLag > 0 && lost >= q.WarnLag && !s.lagging.Swap(true) {
		if tel := h.e.tel; tel.EventsEnabled() {
			tel.Emit("subscriber_lag", map[string]any{
				"query": h.name, "lost": lost, "warn_lag": q.WarnLag,
			})
		}
	}
	if q.DetachAfter > 0 && lost >= q.DetachAfter {
		h.detachSub(s, lost)
	}
}

// detachSub force-detaches one subscription: it is spliced out of the
// subscriber list so the pump never offers to it again, and its channel
// closes so the consumer sees end-of-stream (exactly what an uninstall
// does). Pump goroutine only. A concurrent user Close is safe: whichever
// side splices first wins, and the channel closes only when the pump did.
func (h *QueryHandle) detachSub(s *Subscription, lost uint64) {
	if !h.dropSub(s) {
		return
	}
	s.forcedOff.Store(true)
	s.closeOnce.Do(func() { close(s.closed) })
	s.end()
	h.detached.Add(1)
	if tel := h.e.tel; tel.EventsEnabled() {
		tel.Emit("subscriber_detached", map[string]any{
			"query": h.name, "lost": lost, "detach_after": h.quota.DetachAfter,
		})
	}
}

// observeQuota wires a freshly created tenant gate's state transitions
// into the telemetry event log.
func (e *Engine) observeQuota(h *QueryHandle) {
	if e.tel.EventsEnabled() {
		h.gate.OnTransition(func(throttled bool) {
			e.tel.Emit("quota_state", map[string]any{
				"query": h.name, "throttled": throttled, "shed": h.gate.Shed(),
			})
		})
	}
}

// handleQuotaMetrics caches one query's quota gauges.
type handleQuotaMetrics struct {
	offered, admitted, shed, shedBytes, throttled, subs, lagging, detached *telemetry.Gauge
}

func (h *QueryHandle) quotaMetrics(tel *telemetry.Collector) *handleQuotaMetrics {
	if h.qm == nil && tel.Enabled() {
		r := tel.Registry()
		h.qm = &handleQuotaMetrics{
			offered:   r.GaugeVec("streamop_quota_offered", "rows offered to the query's tenant gate", "query").With(h.name),
			admitted:  r.GaugeVec("streamop_quota_admitted", "rows the tenant gate admitted to delivery", "query").With(h.name),
			shed:      r.GaugeVec("streamop_quota_shed", "rows the tenant gate shed over budget", "query").With(h.name),
			shedBytes: r.GaugeVec("streamop_quota_shed_bytes", "encoded bytes of shed rows", "query").With(h.name),
			throttled: r.GaugeVec("streamop_quota_throttled", "1 while the tenant gate's last decision was a shed", "query").With(h.name),
			subs:      r.GaugeVec("streamop_quota_subscribers", "live subscriptions on the query", "query").With(h.name),
			lagging:   r.GaugeVec("streamop_quota_lagging_subscribers", "subscriptions past the query's WarnLag threshold", "query").With(h.name),
			detached:  r.GaugeVec("streamop_quota_detached_subscribers", "subscriptions force-detached under DetachAfter", "query").With(h.name),
		}
	}
	return h.qm
}

// syncQuota mirrors the handle's quota state into its gauges. Any
// goroutine (reads atomics only); callers pass a non-nil enabled tel.
func (h *QueryHandle) syncQuota(tel *telemetry.Collector) {
	m := h.quotaMetrics(tel)
	if m == nil {
		return
	}
	if g := h.gate; g != nil {
		m.offered.Set(float64(g.Offered()))
		m.admitted.Set(float64(g.Admitted()))
		m.shed.Set(float64(g.Shed()))
		m.shedBytes.Set(float64(g.ShedBytes()))
		if g.Throttled() {
			m.throttled.Set(1)
		} else {
			m.throttled.Set(0)
		}
	}
	subs, lagging := h.subLagCounts()
	m.subs.Set(float64(subs))
	m.lagging.Set(float64(lagging))
	m.detached.Set(float64(h.detached.Load()))
}

// subLagCounts returns the live and lagging subscription counts.
func (h *QueryHandle) subLagCounts() (subs, lagging int) {
	live := h.liveSubs()
	for _, s := range live {
		if s.Lagging() {
			lagging++
		}
	}
	return len(live), lagging
}

// syncQuotaMetrics mirrors every quota-carrying query's gauges; the pump
// calls it at batch boundaries alongside the ring-gate sync.
func (e *Engine) syncQuotaMetrics() {
	if e.tel == nil {
		return
	}
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	for _, h := range e.handles {
		if h.gate != nil || h.quota.LagPolicy() {
			h.syncQuota(e.tel)
		}
	}
}

// debugQuotas builds the /debug/state "quotas" block: one snapshot per
// quota-carrying query, sorted by name. Caller holds topoMu.
func (e *Engine) debugQuotas() []overload.QuotaSnapshot {
	var out []overload.QuotaSnapshot
	for _, h := range e.handles {
		if h.gate == nil && !h.quota.LagPolicy() {
			continue
		}
		out = append(out, h.QuotaState())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Query < out[j].Query })
	return out
}
