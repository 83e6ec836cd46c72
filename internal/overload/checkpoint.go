package overload

import (
	"math"

	"streamop/internal/checkpoint"
)

// Checkpoint codecs: each type writes the state a resumed run needs to make
// the same decisions, and reads it back in the same order.

// Encode writes the controller's persistent state: the AIMD probability
// and its observation-window progress, the exact accounting counters, and
// the admission draw's RNG state. Producer goroutine only (it reads the
// producer-owned fields).
func (c *Controller) Encode(e *checkpoint.Encoder) {
	e.F64(c.p)
	e.I64(int64(c.sinceUpdate))
	e.U64(c.winDrops)
	e.U64(c.offered.Load())
	e.U64(c.admitted.Load())
	e.U64(c.shed.Load())
	e.U64(c.dropped.Load())
	e.I64(c.peakOcc.Load())
	e.I64(int64(c.state.Load()))
	for _, w := range c.rng.State() {
		e.U64(w)
	}
}

// Decode restores what Encode wrote. Producer goroutine only, before the
// first Admit/ObserveRing call.
func (c *Controller) Decode(d *checkpoint.Decoder) {
	c.p = d.F64()
	c.sinceUpdate = int(d.I64())
	c.winDrops = d.U64()
	c.offered.Store(d.U64())
	c.admitted.Store(d.U64())
	c.shed.Store(d.U64())
	c.dropped.Store(d.U64())
	c.peakOcc.Store(d.I64())
	c.state.Store(int32(d.I64()))
	c.pBits.Store(math.Float64bits(c.p))
	var rng [4]uint64
	for i := range rng {
		rng[i] = d.U64()
	}
	c.rng.SetState(rng)
}

// Encode writes the gate's persistent state: the bucket levels, the
// stream-clock refill anchor, and the exact accounting counters. Pump
// goroutine only.
func (g *TenantGate) Encode(e *checkpoint.Encoder) {
	e.F64(g.rowTokens)
	e.F64(g.byteTokens)
	e.U64(g.lastRefill)
	e.Bool(g.started)
	e.U64(g.offered.Load())
	e.U64(g.admitted.Load())
	e.U64(g.shed.Load())
	e.U64(g.admittedBytes.Load())
	e.U64(g.shedBytes.Load())
	e.Bool(g.throttled.Load())
}

// Decode restores what Encode wrote. Pump goroutine only, before the first
// Admit call.
func (g *TenantGate) Decode(d *checkpoint.Decoder) {
	g.rowTokens = d.F64()
	g.byteTokens = d.F64()
	g.lastRefill = d.U64()
	g.started = d.Bool()
	g.offered.Store(d.U64())
	g.admitted.Store(d.U64())
	g.shed.Store(d.U64())
	g.admittedBytes.Store(d.U64())
	g.shedBytes.Store(d.U64())
	g.throttled.Store(d.Bool())
}

// Encode writes the quota's budget and lag policy.
func (q Quota) Encode(e *checkpoint.Encoder) {
	e.F64(q.Rows)
	e.F64(q.Bytes)
	e.F64(q.BurstSec)
	e.U64(q.WarnLag)
	e.U64(q.DetachAfter)
}

// Decode reads a quota Encode wrote.
func (q *Quota) Decode(d *checkpoint.Decoder) {
	q.Rows = d.F64()
	q.Bytes = d.F64()
	q.BurstSec = d.F64()
	q.WarnLag = d.U64()
	q.DetachAfter = d.U64()
}
