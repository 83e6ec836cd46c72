package engine

import (
	"hash/fnv"
	"runtime"
	"sync/atomic"
	"time"

	"streamop/internal/overload"
	"streamop/internal/ringbuf"
	"streamop/internal/telemetry"
	"streamop/internal/trace"
)

// Overload admission and fault injection for the two-level runtime.
//
// Every producer-side ring push goes through a ringGate: an
// overload.Controller deciding admission plus the push itself, under the
// engine's policy: SetOverload's, else drop-tail, which keeps the ring's
// native behaviour and per-packet cost: the drop-tail gate never runs the
// per-packet Admit draw; its accounting is reconciled from the ring's own
// counters at batch boundaries (Controller.ObserveRing).
//
// Where the gates live depends on the run mode. Run and a session have one
// gate on the shared source ring; the serial loop is self-clocked (fill the
// ring, then drain it), so nothing ever drops there and block degenerates
// to drop-tail — it counts every offer and never waits — while shed-sample
// still applies its admission draw — useful for deterministic shed
// accounting, not for load balancing. Paced
// RunParallel is where policies earn their keep: the producer never waits
// for consumers, so each low-level ring and each shard ring gets a gate
// and the policy decides what an overflowing ring costs (drops, sheds, or
// bounded blocking). Unpaced RunParallel already backpressures — the
// moral equivalent of block with no timeout — and runs ungated.
//
// Fault injection (SetFaults) wraps the feed with internal/overload's
// deterministic injectors before the run starts, and applies the
// slow-consumer delay inside the engine's consumer loops, where a feed
// wrapper cannot reach.

// SetOverload sets the admission policy of every ring the engine gates;
// without it each gate runs drop-tail. Call before Run, StartWith or
// RunParallel; it errors once a run or session is active.
func (e *Engine) SetOverload(cfg overload.Config) error {
	if err := e.setterGuard("SetOverload"); err != nil {
		return err
	}
	e.olCfg = cfg
	return nil
}

// SetFaults attaches a deterministic fault-injector set: the engine wraps
// its feed with f at run start and honors f's slow-consumer delay in the
// consumer loops. A nil f disables injection. It errors once a run or
// session is active.
func (e *Engine) SetFaults(f *overload.Faults) error {
	if err := e.setterGuard("SetFaults"); err != nil {
		return err
	}
	e.faults = f
	return nil
}

// Faults returns the attached injector set, nil when none.
func (e *Engine) Faults() *overload.Faults { return e.faults }

// Overload returns a snapshot of every admission controller of the
// current (or most recent) run, one per gated ring. Safe from any
// goroutine; empty before the first run and after ungated (unpaced
// parallel) runs.
func (e *Engine) Overload() []overload.Snapshot {
	gs := e.gates.Load()
	if gs == nil {
		return nil
	}
	out := make([]overload.Snapshot, 0, len(*gs))
	for _, g := range *gs {
		out = append(out, g.ctrl.Snapshot(g.node, g.ringLbl))
	}
	return out
}

// setGates publishes the run's gate list for Overload and /debug/state.
func (e *Engine) setGates(gs []*ringGate) { e.gates.Store(&gs) }

// overloadMetrics caches one gate's gauge handles (labels: node, ring).
type overloadMetrics struct {
	state, admitP                    *telemetry.Gauge
	offered, admitted, shed, dropped *telemetry.Gauge
}

// ringGate pairs one ring with its admission controller. All methods
// except sync-published reads belong to the producer goroutine owning the
// ring.
type ringGate struct {
	ctrl    *overload.Controller
	ring    *ringbuf.Ring[trace.Packet]
	policy  overload.Policy
	timeout time.Duration
	node    string
	ringLbl string
	m       *overloadMetrics
}

// newGate builds the gate for one ring under the engine's admission
// config, wiring metrics and the overload_state transition event when
// telemetry is attached. The seed is perturbed per ring (node and ring
// label) so replicated rings draw independent but reproducible admission
// schedules.
func (e *Engine) newGate(ring *ringbuf.Ring[trace.Packet], node, ringLbl string) *ringGate {
	cfg := e.olCfg
	h := fnv.New64a()
	h.Write([]byte(node))
	h.Write([]byte{'/'})
	h.Write([]byte(ringLbl))
	cfg.Seed ^= h.Sum64()
	ctrl := overload.NewController(cfg)
	eff := ctrl.Config()
	g := &ringGate{
		ctrl:    ctrl,
		ring:    ring,
		policy:  eff.Policy,
		timeout: eff.BlockTimeout,
		node:    node,
		ringLbl: ringLbl,
	}
	if tel := e.tel; tel != nil {
		r := tel.Registry()
		g.m = &overloadMetrics{
			state:    r.GaugeVec("streamop_overload_state", "overload state machine: 0 normal, 1 shedding, 2 saturated", "node", "ring").With(node, ringLbl),
			admitP:   r.GaugeVec("streamop_overload_admit_probability", "live shed-sample admit probability (1 under other policies)", "node", "ring").With(node, ringLbl),
			offered:  r.GaugeVec("streamop_overload_offered", "packets offered to the ring's admission gate", "node", "ring").With(node, ringLbl),
			admitted: r.GaugeVec("streamop_overload_admitted", "packets admitted toward the ring", "node", "ring").With(node, ringLbl),
			shed:     r.GaugeVec("streamop_overload_shed", "packets rejected by the shed-sample gate ahead of the ring", "node", "ring").With(node, ringLbl),
			dropped:  r.GaugeVec("streamop_overload_dropped", "admitted packets rejected at the ring (full ring or block timeout)", "node", "ring").With(node, ringLbl),
		}
		if tel.EventsEnabled() {
			ctrl.OnTransition(func(from, to overload.State, occ int, p float64) {
				tel.Emit("overload_state", map[string]any{
					"node": node, "ring": ringLbl,
					"from": from.String(), "to": to.String(),
					"ring_occupancy": occ, "admit_probability": p,
				})
			})
		}
	}
	return g
}

// offer admits and pushes a run of packets under the gate's policy, in
// order, and reports how many were shed ahead of the ring and how many
// were dropped at it: every gated push in the engine — the serial loop's
// source ring, a batch at a time, and paced RunParallel's selection and
// shard rings, a packet at a time. Drop-tail is the ring's native
// push-or-drop. Shed-sample and block draw Admit per packet against the
// occupancy that packet would have seen (the ring's, plus what the run
// admitted before it), then push what was admitted; block waits up to the
// timeout for ring space before declaring the rest dropped. The gate's ring
// is SPSC with this goroutine as the only producer, so the ring cannot
// fill under a caller that offers no more than its free space.
func (g *ringGate) offer(pkts []trace.Packet) (shed, dropped int) {
	occ, capacity := g.ring.Len(), g.ring.Cap()
	switch g.policy {
	case overload.ShedSample:
		run := 0 // start of the admitted run not yet pushed
		for i := range pkts {
			if !g.ctrl.Admit(occ+i-shed, capacity) {
				dropped += g.push(pkts[run:i])
				shed++
				run = i + 1
			}
		}
		dropped += g.push(pkts[run:])
	case overload.Block:
		for i := range pkts {
			g.ctrl.Admit(occ+i, capacity)
		}
		n := g.ring.PushBatch(pkts)
		for deadline := time.Now().Add(g.timeout); n < len(pkts); n += g.ring.PushBatch(pkts[n:]) {
			if time.Now().After(deadline) {
				dropped = g.push(pkts[n:])
				break
			}
			runtime.Gosched()
		}
	default:
		dropped = g.push(pkts)
	}
	return shed, dropped
}

// push places pkts in the ring and counts what did not fit as dropped: in
// the ring's drops and, under a policy that draws, the controller's
// (drop-tail's are reconciled from the ring's at sync).
func (g *ringGate) push(pkts []trace.Packet) int {
	d := len(pkts) - g.ring.PushBatch(pkts)
	if d > 0 {
		g.ring.AddDrops(uint64(d))
		if g.policy != overload.DropTail {
			g.ctrl.NoteDrop(uint64(d))
		}
	}
	return d
}

// sync reconciles drop-tail accounting from the ring's counters and
// mirrors the controller into the streamop_overload_* gauges. Producer
// goroutine, batch-boundary cadence — never per packet.
func (g *ringGate) sync() {
	if g.policy == overload.DropTail {
		g.ctrl.ObserveRing(g.ring.Pushed(), g.ring.Drops(), g.ring.Len(), g.ring.Cap())
	}
	if m := g.m; m != nil {
		m.state.Set(float64(g.ctrl.State()))
		m.admitP.Set(g.ctrl.AdmitProbability())
		m.offered.Set(float64(g.ctrl.Offered()))
		m.admitted.Set(float64(g.ctrl.Admitted()))
		m.shed.Set(float64(g.ctrl.Shed()))
		m.dropped.Set(float64(g.ctrl.Dropped()))
	}
}

// consumerDelay returns the injected slow-consumer delay, 0 when no
// injector (or none configured) — one nil check on the hot path.
func (e *Engine) consumerDelay() time.Duration {
	if e.faults == nil {
		return 0
	}
	return e.faults.ConsumerDelay
}

// gateRegistry is the engine-side gate state; embedded in Engine.
type gateRegistry struct {
	olCfg  overload.Config
	faults *overload.Faults
	gates  atomic.Pointer[[]*ringGate]
	// srcGate guards the shared source ring during Run.
	srcGate *ringGate
}
