package engine

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"streamop/internal/gsql"
	"streamop/internal/operator"
	"streamop/internal/ringbuf"
	"streamop/internal/telemetry"
	"streamop/internal/trace"
	"streamop/internal/tuple"
)

// Sharded parallel execution for low-level partial aggregation.
//
// Under RunParallel a PartialNode fans out into N replicas, each a Node of
// its own (shard) with a private SPSC ring and, as its step, a private
// stripe of the direct-mapped group table, run by the same low-level
// worker as any other node (runLow, parallel.go). The producer evaluates
// the node's GROUP BY over its batches and routes each packet to the shard
// owning the group's global slot (slot = hash & mask, owner = slot % N, local
// index = slot / N), so no two shards ever touch the same group and no
// shard shares mutable state with another. The high-level re-aggregation downstream merges the
// partial rows exactly as it merges the single-table Run's rows.
//
// Exactness. Because routing is by slot, each shard observes, for every
// slot it owns, the same packet subsequence the single table would have
// observed — so each slot goes through the identical fold / collision
// eviction / window flush sequence, and final aggregates and summed
// eviction counts match Run bit for bit. The remaining hazard is window
// interleaving at the high level: shard A could flush window W while
// shard B already emits rows of W+1, which would trick the downstream
// operator's ordered-group window detection into closing W early. In
// unpaced mode (backpressure, no drops) the producer therefore enforces
// a window barrier: at each boundary it drains every shard ring (waits
// for consumed == pushed), bumps a flush epoch, and waits for each worker
// to flush its stripe and acknowledge before routing the first packet of
// the new window. In paced mode packets drop under overload anyway, so
// exactness is off the table; the barrier is skipped and each shard
// detects boundaries on its own stripe, trading window discipline for
// zero producer stalls.
//
// Compiled plans reuse scratch buffers (DESIGN.md §7), so the producer's
// router and every worker each analyze their own Plan clone.

// shardRingCap is each shard's private ring capacity.
const shardRingCap = 4096

// shardBatch is the RunParallel producer's pump batch and routing-buffer
// flush threshold, and its workers' PopBatch size.
const shardBatch = 256

// shardMetrics caches one shard's gauge handles (labels: node, shard).
type shardMetrics struct {
	in, busy, evictions *telemetry.Gauge
	ringOcc, ringDrops  *telemetry.Gauge
}

// shard is one replica of a partial-aggregation node: a Node — the node's
// name, subscribers and callbacks, a clone of its plan, counters, profile
// and output batches of its own — whose step is a private table stripe.
// What it adds to a node is here and in shardSet: the flush epoch it
// acknowledges, and the mirrors of its counters that /debug/state and the
// streamop_shard_* gauges read while it runs.
type shard struct {
	Node
	id    int
	table *operator.Table
	ring  *ringbuf.Ring[trace.Packet]

	// ackEpoch trails set.flushEpoch; the worker flushes its stripe and
	// catches up whenever they differ.
	ackEpoch atomic.Uint64

	// Live mirrors for /debug/state (see debug.go).
	aTuplesIn  atomic.Int64
	aOut       atomic.Int64
	aEvictions atomic.Int64
	aResidents atomic.Int64
	aBusyNS    atomic.Int64

	sm *shardMetrics
}

// syncDebug mirrors the replica's counters into its atomics and gauges.
func (sh *shard) syncDebug() {
	sh.aTuplesIn.Store(sh.tuplesIn)
	sh.aOut.Store(sh.out)
	sh.aEvictions.Store(sh.table.Evictions())
	sh.aResidents.Store(sh.table.Residents())
	sh.aBusyNS.Store(int64(sh.busy))
	if m := sh.sm; m != nil {
		m.in.Set(float64(sh.tuplesIn))
		m.busy.Set(sh.busy.Seconds())
		m.evictions.Set(float64(sh.table.Evictions()))
		m.ringOcc.Set(float64(sh.ring.Len()))
		m.ringDrops.Set(float64(sh.ring.Drops()))
	}
}

// shardSet is the per-node sharded runtime: the producer-side router plus
// the replicas and what they share. Router state (front, in) is
// touched only by the producer goroutine.
type shardSet struct {
	node   *PartialNode
	shards []*shard
	// appMu has the replicas take turns at the node's application
	// callbacks (see callApps).
	appMu sync.Mutex
	// dead is set once a replica errs or panics: a replica is one stripe of
	// a node, so the node is dead — the first panic is its one recorded
	// failure (failNode) and the other replicas stop folding at their next
	// batch, draining their rings so the barrier and the gates keep moving.
	dead atomic.Bool

	// Router: the GROUP BY front of a private plan clone, evaluated over
	// the producer's batches (in), whose windows raise the barrier.
	front  *gsql.GroupFront
	in     *tuple.Batch
	hashes []uint64
	mask   uint64

	// pend[i] buffers packets routed to shard i between ring pushes, under
	// the barrier only: pacing simulates arrival times, so a paced packet
	// goes straight to its shard's gate.
	pend [][]trace.Packet

	// barrier is true in unpaced mode: enforce window barriers (exactness)
	// and backpressure instead of drops.
	barrier bool

	// gates guard the shard rings in paced mode (one per replica, indexed
	// like shards); nil in barrier mode, which backpressures instead.
	gates []*ringGate

	// routeFailed marks a set whose router hit an evaluation error; the
	// producer stops routing to it (the error is already reported).
	routeFailed bool

	flushEpoch atomic.Uint64
}

// newShardSet builds the sharded runtime for one partial node.
func (e *Engine) newShardSet(pn *PartialNode, barrier bool) (*shardSet, error) {
	n := pn.Shards()
	router, err := pn.plan.Clone()
	if err != nil {
		return nil, fmt.Errorf("engine: node %q: cloning router plan: %w", pn.name, err)
	}
	s := &shardSet{
		node:    pn,
		front:   gsql.NewGroupFront(router),
		in:      tuple.NewBatch(trace.Schema(), tuple.DefaultBatchRows),
		mask:    uint64(pn.table.Slots() - 1),
		pend:    make([][]trace.Packet, n),
		barrier: barrier,
	}
	ringCap := shardRingCap
	if e.shardCap > 0 {
		ringCap = e.shardCap
	}
	pn.openSubs(n)
	for i := 0; i < n; i++ {
		wplan, err := pn.plan.Clone()
		if err != nil {
			return nil, fmt.Errorf("engine: node %q: cloning shard plan: %w", pn.name, err)
		}
		ring, err := ringbuf.New[trace.Packet](ringCap)
		if err != nil {
			return nil, err
		}
		sh := &shard{id: i, ring: ring, Node: Node{
			name: pn.name, plan: wplan, schema: pn.schema, low: true,
			subs: pn.subs, apps: pn.apps, set: s,
			prof: e.Profiler().NodeShard(pn.name, i),
		}}
		sh.table = pn.table.Stripe(wplan, n, sh.emitCols)
		sh.table.SetProfile(sh.prof)
		sh.step = sh.table
		sh.takeOuts()
		lbl := strconv.Itoa(i)
		if !barrier {
			s.gates = append(s.gates, e.newGate(ring, pn.name, lbl))
		}
		if e.tel != nil {
			r := e.tel.Registry()
			sh.sm = &shardMetrics{
				in:        r.GaugeVec("streamop_shard_tuples_in", "packets routed to the shard replica", "node", "shard").With(pn.name, lbl),
				busy:      r.GaugeVec("streamop_shard_busy_seconds", "wall-clock time inside the shard's processing loop", "node", "shard").With(pn.name, lbl),
				evictions: r.GaugeVec("streamop_shard_evictions", "partial rows evicted by slot collisions in the shard's stripe", "node", "shard").With(pn.name, lbl),
				ringOcc:   r.GaugeVec("streamop_shard_ring_occupancy", "shard ring-buffer fill", "node", "shard").With(pn.name, lbl),
				ringDrops: r.GaugeVec("streamop_shard_ring_drops", "packets dropped at the shard's ring buffer", "node", "shard").With(pn.name, lbl),
			}
		}
		s.shards = append(s.shards, sh)
		s.pend[i] = make([]trace.Packet, 0, shardBatch)
	}
	return s, nil
}

// flushPend pushes shard i's buffered packets into its ring, waiting for
// space (barrier mode backpressures).
func (s *shardSet) flushPend(i int) {
	buf := s.pend[i]
	ring := s.shards[i].ring
	for len(buf) > 0 {
		n := ring.PushBatch(buf)
		buf = buf[n:]
		if len(buf) > 0 {
			runtime.Gosched()
		}
	}
	s.pend[i] = s.pend[i][:0]
}

// flushAll drains every pending routing buffer.
func (s *shardSet) flushAll() {
	for i := range s.pend {
		if len(s.pend[i]) > 0 {
			s.flushPend(i)
		}
	}
}

// windowBarrier closes the current window across all shards: drain every
// shard's ring, then direct every worker to flush its stripe and wait for
// the acknowledgement. Afterwards the downstream channels hold every row
// of the closing window and none of the next — the same window-monotone
// order Run produces.
func (s *shardSet) windowBarrier() {
	s.flushAll()
	for _, sh := range s.shards {
		for sh.consumed.Load() != sh.ring.Pushed() {
			runtime.Gosched()
		}
	}
	epoch := s.flushEpoch.Add(1)
	for _, sh := range s.shards {
		for sh.ackEpoch.Load() != epoch {
			runtime.Gosched()
		}
	}
}

// collect folds the replicas' counters back into the node after the run,
// so Stats, Utilization and Evictions report the same quantities they
// report after Run: tuplesIn/out/evictions are sums (each packet and each
// group lives on exactly one shard), and busy is the summed CPU time
// across replicas — the node's total CPU cost, which is the quantity
// utilization compares. A replica's contained panic stays with the node.
func (s *shardSet) collect() {
	n := s.node
	for _, sh := range s.shards {
		n.tuplesIn += sh.tuplesIn
		n.out += sh.out
		n.busy += sh.busy
		n.sharded += sh.table.Evictions()
		if sh.failed && !n.failed {
			n.failed, n.failMsg, n.failStack = true, sh.failMsg, sh.failStack
		}
	}
	n.syncTelemetry(0)
}
