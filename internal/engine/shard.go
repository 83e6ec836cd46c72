package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamop/internal/gsql"
	"streamop/internal/ringbuf"
	"streamop/internal/telemetry"
	"streamop/internal/trace"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// Sharded parallel execution for low-level partial aggregation.
//
// Under RunParallel a PartialNode fans out into N worker replicas, each
// with a private SPSC ring and a private stripe of the direct-mapped
// group table. The producer evaluates the node's GROUP BY per packet and
// routes the packet to the shard owning the group's global slot
// (slot = hash & mask, owner = slot % N, local index = slot / N), so no
// two shards ever touch the same group and no shard shares mutable state
// with another. The high-level re-aggregation downstream merges the
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
// for folded == pushed), bumps a flush epoch, and waits for each worker
// to flush its stripe and acknowledge before routing the first packet of
// the new window. In paced mode packets drop under overload anyway, so
// exactness is off the table; the barrier is skipped and each shard
// detects boundaries on its own stripe, trading window discipline for
// zero producer stalls.
//
// Compiled plans reuse scratch buffers (DESIGN.md §7), so the producer's
// router and every worker each analyze their own Plan clone.

// shardRTRef publishes a node's live sharded runtime for /debug/state
// (see PartialNode.rt).
type shardRTRef = atomic.Pointer[shardSet]

// shardRingCap is each shard's private ring capacity.
const shardRingCap = 4096

// shardBatch is both the routing-buffer flush threshold (producer side)
// and the PopBatch size (worker side).
const shardBatch = 256

// shardMetrics caches one shard's gauge handles (labels: node, shard).
type shardMetrics struct {
	in, busy, evictions *telemetry.Gauge
	ringOcc, ringDrops  *telemetry.Gauge
}

// shardWorker is one replica of a partial-aggregation node: a goroutine
// draining a private ring into a private table stripe. Plain fields are
// owned by the worker goroutine; the a-prefixed atomics mirror them at
// batch boundaries for /debug/state.
type shardWorker struct {
	id    int
	set   *shardSet
	table ptable
	ring  *ringbuf.Ring[trace.Packet]

	// folded counts packets fully processed (or drained after a failure);
	// the producer's window barrier waits for folded == ring.Pushed().
	folded atomic.Uint64
	// ackEpoch trails set.flushEpoch; the worker flushes its stripe and
	// catches up whenever they differ.
	ackEpoch atomic.Uint64
	failed   bool

	tuplesIn int64
	out      int64
	busy     time.Duration
	// outs[i] is the batch this replica fills for the node's i-th
	// subscriber (see edge): a replica shares the edge's channels, never a
	// batch.
	outs []*tuple.Batch

	// Live mirrors for /debug/state (see debug.go).
	aTuplesIn  atomic.Int64
	aOut       atomic.Int64
	aEvictions atomic.Int64
	aResidents atomic.Int64
	aBusyNS    atomic.Int64

	sm *shardMetrics
}

// emit is the replica's form of Node.emitCols: a run of partial rows is
// appended to the replica's batch for each subscriber, then shown to the
// node's application callbacks under one lock for the run (apps are user
// code and must not see concurrent calls; the lock also guards the node's
// scratch row).
func (w *shardWorker) emit(cols []*tuple.Column) error {
	w.out += int64(cols[0].Len())
	for _, b := range w.outs {
		b.AppendCols(cols)
	}
	s := w.set
	if len(s.node.apps) == 0 {
		return nil
	}
	s.appMu.Lock()
	defer s.appMu.Unlock()
	return s.node.callApps(cols)
}

// step runs fn — one fold or flush of the stripe — charging the replica,
// and passes the rows it emitted to the subscribers' workers.
func (w *shardWorker) step(reportErr func(error), fn func() error) {
	start := time.Now()
	err := safeCall(fn)
	w.busy += time.Since(start)
	for i, sub := range w.set.node.subs {
		w.outs[i] = sub.in.pass(w.outs[i])
	}
	if err != nil {
		w.fail(reportErr, err)
	}
}

// syncDebug mirrors the worker's counters into its atomics and gauges.
func (w *shardWorker) syncDebug() {
	w.aTuplesIn.Store(w.tuplesIn)
	w.aOut.Store(w.out)
	w.aEvictions.Store(w.table.evictions)
	w.aResidents.Store(w.table.residents)
	w.aBusyNS.Store(int64(w.busy))
	if m := w.sm; m != nil {
		m.in.Set(float64(w.tuplesIn))
		m.busy.Set(w.busy.Seconds())
		m.evictions.Set(float64(w.table.evictions))
		m.ringOcc.Set(float64(w.ring.Len()))
		m.ringDrops.Set(float64(w.ring.Drops()))
	}
}

// run is the worker goroutine body.
func (w *shardWorker) run(producerDone <-chan struct{}, reportErr func(error)) {
	s := w.set
	batch := make([]trace.Packet, shardBatch)
	empty := 0 // polls of an empty ring since the last packet
	for {
		// Window barrier: the producer has drained our ring (it waited for
		// folded == pushed before bumping the epoch), so every packet of
		// the closing window is already folded — flush the stripe, hand the
		// rows on, and only then ack: every row of the closing window is on
		// the subscribers' edges before a packet of the next one is routed.
		if fe := s.flushEpoch.Load(); fe != w.ackEpoch.Load() {
			if !w.failed {
				w.step(reportErr, w.table.flush)
			}
			w.syncDebug()
			w.ackEpoch.Store(fe)
			continue
		}
		n := w.ring.PopBatch(batch)
		if n == 0 {
			select {
			case <-producerDone:
				if w.ring.Len() == 0 && s.flushEpoch.Load() == w.ackEpoch.Load() {
					w.finish(reportErr)
					return
				}
			default:
				awaitPackets(&empty, !s.barrier)
			}
			continue
		}
		empty = 0
		if s.delay > 0 {
			time.Sleep(s.delay)
		}
		if w.failed {
			// Drain mode: keep the barrier and backpressure accounting
			// moving without touching the (dead) table.
			w.folded.Add(uint64(n))
			continue
		}
		w.tuplesIn += int64(n)
		w.step(reportErr, func() error { return w.table.processPackets(batch[:n]) })
		w.folded.Add(uint64(n))
		w.syncDebug()
	}
}

func (w *shardWorker) fail(reportErr func(error), err error) {
	reportErr(fmt.Errorf("engine: node %q shard %d: %w", w.set.node.name, w.id, err))
	w.failed = true
}

// safeCall runs fn, converting a panic into an error so the shard
// worker's existing fail/drain path contains it instead of crashing the
// process. (A shard replica is one stripe of a node, so the whole node is
// reported failed — consistent with the error path.)
func safeCall(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return fn()
}

// finish flushes the residual stripe at end of stream; the last worker
// out closes the edges to the node's subscribers.
func (w *shardWorker) finish(reportErr func(error)) {
	s := w.set
	if !w.failed {
		w.step(reportErr, w.table.flush)
	}
	w.syncDebug()
	if s.remaining.Add(-1) == 0 {
		for _, sub := range s.node.subs {
			close(sub.in.full)
		}
	}
}

// shardSet is the per-node sharded runtime: the producer-side router plus
// the worker replicas. Router state (rctx, rgb, window) is touched only
// by the producer goroutine.
type shardSet struct {
	node    *PartialNode
	workers []*shardWorker
	appMu   sync.Mutex

	// Router: a private plan clone evaluating GROUP BY per packet.
	router  *gsql.Plan
	rctx    gsql.Ctx
	rgb     []value.Value
	window  []value.Value
	winOpen bool
	mask    uint64

	// pend[i] buffers packets routed to shard i between ring pushes, under
	// the barrier only: pacing simulates arrival times, so a paced packet
	// goes straight to its shard's gate.
	pend [][]trace.Packet

	// barrier is true in unpaced mode: enforce window barriers (exactness)
	// and backpressure instead of drops.
	barrier bool

	// gates guard the shard rings in paced mode (one per worker, indexed
	// like workers); nil in barrier mode, which backpressures instead.
	gates []*ringGate
	// delay is the injected slow-consumer delay applied per popped batch.
	delay time.Duration

	// routeFailed marks a set whose router hit an evaluation error; the
	// producer stops routing to it (the error is already reported).
	routeFailed bool

	// rvec is the lazily built vectorized router state (see batch.go).
	rvec *routerVec

	flushEpoch atomic.Uint64
	remaining  atomic.Int32
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
		router:  router,
		rgb:     make([]value.Value, len(router.GroupBy)),
		mask:    pn.table.mask,
		pend:    make([][]trace.Packet, n),
		barrier: barrier,
	}
	s.delay = e.consumerDelay()
	ringCap := shardRingCap
	if e.shardCap > 0 {
		ringCap = e.shardCap
	}
	size := len(pn.table.slots)
	stripe := (size + n - 1) / n // upper bound on slots per shard
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
		w := &shardWorker{id: i, set: s, ring: ring}
		for _, sub := range pn.subs {
			w.outs = append(w.outs, <-sub.in.free)
		}
		if !barrier {
			s.gates = append(s.gates, e.newGate(e.resolveOverload(pn.plan, pn.name, strconv.Itoa(i)), ring, pn.name, strconv.Itoa(i)))
		}
		w.table = newPtable(pn.name, wplan, stripe, s.mask, uint64(n), w.emit)
		w.table.prof = e.Profiler().NodeShard(pn.name, i)
		if e.tel != nil {
			r := e.tel.Registry()
			shard := strconv.Itoa(i)
			w.sm = &shardMetrics{
				in:        r.GaugeVec("streamop_shard_tuples_in", "packets routed to the shard replica", "node", "shard").With(pn.name, shard),
				busy:      r.GaugeVec("streamop_shard_busy_seconds", "wall-clock time inside the shard's processing loop", "node", "shard").With(pn.name, shard),
				evictions: r.GaugeVec("streamop_shard_evictions", "partial rows evicted by slot collisions in the shard's stripe", "node", "shard").With(pn.name, shard),
				ringOcc:   r.GaugeVec("streamop_shard_ring_occupancy", "shard ring-buffer fill", "node", "shard").With(pn.name, shard),
				ringDrops: r.GaugeVec("streamop_shard_ring_drops", "packets dropped at the shard's ring buffer", "node", "shard").With(pn.name, shard),
			}
		}
		s.workers = append(s.workers, w)
		s.pend[i] = make([]trace.Packet, 0, shardBatch)
	}
	s.remaining.Store(int32(n))
	return s, nil
}

// route evaluates the node's GROUP BY on one packet and buffers it for
// the owning shard, enforcing the window barrier at boundaries (unpaced
// mode). The caller owns tp for the duration of the call only; packets
// are buffered by value.
func (s *shardSet) route(p trace.Packet, tp tuple.Tuple) error {
	s.rctx = gsql.Ctx{Tuple: tp}
	for i, gb := range s.router.GroupBy {
		v, err := gb(&s.rctx)
		if err != nil {
			return fmt.Errorf("engine: node %q: routing group-by: %w", s.node.name, err)
		}
		s.rgb[i] = v
	}
	if s.barrier && len(s.router.OrderedIdx) > 0 {
		if s.winOpen && s.routerChanged() {
			s.windowBarrier()
			s.winOpen = false
		}
		if !s.winOpen {
			s.winOpen = true
			s.window = s.window[:0]
			for _, idx := range s.router.OrderedIdx {
				s.window = append(s.window, s.rgb[idx])
			}
		}
	}
	slot := tuple.HashValues(s.rgb) & s.mask
	shard := int(slot % uint64(len(s.workers)))
	if !s.barrier {
		s.gates[shard].offer(&p)
		return nil
	}
	s.pend[shard] = append(s.pend[shard], p)
	if len(s.pend[shard]) >= shardBatch {
		s.flushPend(shard)
	}
	return nil
}

func (s *shardSet) routerChanged() bool {
	for i, idx := range s.router.OrderedIdx {
		if !value.Equal(s.window[i], s.rgb[idx]) {
			return true
		}
	}
	return false
}

// flushPend pushes shard i's buffered packets into its ring, waiting for
// space (barrier mode backpressures).
func (s *shardSet) flushPend(i int) {
	buf := s.pend[i]
	ring := s.workers[i].ring
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
	for _, w := range s.workers {
		for w.folded.Load() != w.ring.Pushed() {
			runtime.Gosched()
		}
	}
	epoch := s.flushEpoch.Add(1)
	for _, w := range s.workers {
		for w.ackEpoch.Load() != epoch {
			runtime.Gosched()
		}
	}
}

// collect folds the workers' counters back into the node after the run,
// so Stats, Utilization and Evictions report the same quantities they
// report after Run: tuplesIn/out/evictions are sums (each packet and each
// group lives on exactly one shard), and busy is the summed CPU time
// across replicas — the node's total CPU cost, which is the quantity
// utilization compares.
func (s *shardSet) collect() {
	n := s.node
	for _, w := range s.workers {
		n.tuplesIn += w.tuplesIn
		n.out += w.out
		n.busy += w.busy
		n.table.evictions += w.table.evictions
		n.table.residents += w.table.residents
	}
	n.syncTelemetry(0)
}
