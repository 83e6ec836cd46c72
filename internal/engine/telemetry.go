package engine

import (
	"streamop/internal/ringbuf"
	"streamop/internal/telemetry"
	"streamop/internal/trace"
)

// Telemetry instrumentation for the two-level runtime: per-node
// tuples-in/out, busy time and queue depth, plus ring-buffer occupancy and
// drops — the quantities behind the paper's Figures 5 and 6 (per-node CPU)
// and the line-rate drop accounting of §2.
//
// Node counters are plain fields written by the node's owning goroutine;
// telemetry mirrors them into gauges at batch boundaries, so RunParallel
// stays contention-free (each node owns distinct gauge children) and the
// uninstrumented path costs one nil check per batch.

// nodeMetrics caches a node's gauge handles.
type nodeMetrics struct {
	in, out, busy, queue *telemetry.Gauge
	ringOcc, ringDrops   *telemetry.Gauge
}

// sourceMetrics caches the engine-level gauges for the shared source ring
// (Run's single producer ring; RunParallel rings are per node).
type sourceMetrics struct {
	occ, drops, peak, packets *telemetry.Gauge
}

// SetCollector attaches a telemetry collector to the engine and to every
// node registered so far and afterwards; node metrics are labeled with the
// node name. A nil collector detaches. It errors if a run or session is
// already active (reconfiguring a live engine raced with the pump).
func (e *Engine) SetCollector(c *telemetry.Collector) error {
	if err := e.setterGuard("SetCollector"); err != nil {
		return err
	}
	if c == nil || !c.Enabled() {
		e.tel, e.sm = nil, nil
		for _, n := range e.Nodes() {
			n.nm = nil
			n.step.SetCollector(nil, "")
		}
		return nil
	}
	e.tel = c
	r := c.Registry()
	e.sm = &sourceMetrics{
		occ:     r.GaugeVec("streamop_ring_occupancy", "ring-buffer fill feeding the node (RunParallel) or the engine (Run)", "node").With("source"),
		drops:   r.GaugeVec("streamop_ring_drops", "packets dropped at the node's ring buffer", "node").With("source"),
		peak:    r.GaugeVec("streamop_ring_peak_occupancy", "high-water mark of the source ring", "node").With("source"),
		packets: r.Gauge("streamop_engine_packets", "packets the feed offered to the engine"),
	}
	for _, n := range e.Nodes() {
		e.instrumentNode(n)
	}
	e.registerDebug(c)
	return nil
}

// Collector returns the engine's collector (nil when uninstrumented).
func (e *Engine) Collector() *telemetry.Collector { return e.tel }

func (e *Engine) instrumentNode(n *Node) {
	r := e.tel.Registry()
	n.nm = &nodeMetrics{
		in:        r.GaugeVec("streamop_node_tuples_in", "tuples offered to the node", "node").With(n.name),
		out:       r.GaugeVec("streamop_node_tuples_out", "tuples the node emitted downstream", "node").With(n.name),
		busy:      r.GaugeVec("streamop_node_busy_seconds", "wall-clock time inside the node's processing loop", "node").With(n.name),
		queue:     r.GaugeVec("streamop_node_queue_depth", "pending input tuples buffered for the node", "node").With(n.name),
		ringOcc:   r.GaugeVec("streamop_ring_occupancy", "ring-buffer fill feeding the node (RunParallel) or the engine (Run)", "node").With(n.name),
		ringDrops: r.GaugeVec("streamop_ring_drops", "packets dropped at the node's ring buffer", "node").With(n.name),
	}
	n.step.SetCollector(e.tel, n.name)
}

// syncTelemetry mirrors the node's counters into its gauges; queueDepth is
// the buffered input the caller found: the rows in the input batch when
// the node's step began.
func (n *Node) syncTelemetry(queueDepth int) {
	m := n.nm
	if m == nil {
		return
	}
	m.in.Set(float64(n.tuplesIn))
	m.out.Set(float64(n.out))
	m.busy.Set(n.busy.Seconds())
	m.queue.Set(float64(queueDepth))
}

// syncRing mirrors one ring's occupancy and drop count into the node's
// gauges (RunParallel gives every low-level node a private ring).
func (n *Node) syncRing(r *ringbuf.Ring[trace.Packet]) {
	if n.nm == nil {
		return
	}
	n.nm.ringOcc.Set(float64(r.Len()))
	n.nm.ringDrops.Set(float64(r.Drops()))
}

// syncSourceRing mirrors the engine's shared source ring (Run) into the
// engine-level gauges under the pseudo-node name "source".
func (e *Engine) syncSourceRing() {
	if e.sm == nil {
		return
	}
	e.sm.occ.Set(float64(e.ring.Len()))
	e.sm.drops.Set(float64(e.ring.Drops()))
	e.sm.peak.Set(float64(e.RingPeak()))
	e.sm.packets.Set(float64(e.packets.Load()))
}

// noteRingPeak records the source ring's high-water mark (tracked
// unconditionally; it is one comparison per producer batch).
func (e *Engine) noteRingPeak() {
	n := int64(e.ring.Len())
	for {
		old := e.ringPeak.Load()
		if n <= old || e.ringPeak.CompareAndSwap(old, n) {
			return
		}
	}
}

// RingPeak returns the highest source-ring occupancy observed during Run
// (RunParallel uses private per-node rings; see the per-node gauges).
func (e *Engine) RingPeak() int { return int(e.ringPeak.Load()) }
