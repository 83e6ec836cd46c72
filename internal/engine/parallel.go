package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"streamop/internal/profile"
	"streamop/internal/ringbuf"
	"streamop/internal/trace"
)

// RunParallel runs the node tree with real concurrency, the way Gigascope
// deploys it: the packet producer, every low-level node and every
// high-level node each run on their own goroutine. Every low-level node
// drains a private SPSC ring fed by the producer, in the one worker body
// (runLow); a partial-aggregation node first fans out into shard replicas,
// each a node with a ring and a group-table stripe of its own (see
// shard.go), routed by group-key hash so no shard shares state. The nodes
// themselves run as they do under Run — the same step over a popped packet
// batch, the same step over a high-level node's input batch, the same
// emit, the same panic containment — and the edge between two nodes is the
// same columnar batch (see edge): a node's goroutine fills a batch of its
// own and, between steps, passes it to the reader's goroutine over a
// bounded channel, taking a spent one back. A reader that falls behind
// blocks its parent there, in both modes.
//
// The producer takes its packets from the engine's one pump (pump.go), as
// Run and a session do. speedup > 0 has the pump pace them by packet
// timestamps accelerated by that factor (speedup 100 replays a 10-second
// capture in 100 ms), sleeping until a packet is due. Under pacing the
// producer never waits for consumers: a node that cannot keep
// up with the offered rate overflows its ring, and what happens next is
// the ring's admission policy (see overload.go) — drop-tail by default,
// which drops and counts the overflow: exactly the line-rate failure mode
// the paper's low-level queries exist to avoid. speedup <= 0 disables
// pacing; the producer then applies backpressure (waits for ring space)
// so nothing drops, and enforces window barriers on sharded nodes so
// their output is window-monotone and final aggregates match Run exactly
// (the property shard_test.go checks).
//
// Output ordering within one node is preserved for selection nodes; a
// sharded partial node preserves window order (unpaced) but interleaves
// rows within a window across shards. Interleaving across nodes is
// nondeterministic. Busy-time accounting still works per node — a
// sharded node's busy time is the summed CPU time of its replicas — but
// utilization comparisons are cleanest under Run, which is
// single-threaded and deterministic. Provenance tracing is ignored under
// RunParallel: an attached tracer is detached from every node for the
// length of the run (see tracing.go).
func (e *Engine) RunParallel(feed trace.Feed, speedup float64) error {
	return e.RunParallelContext(context.Background(), feed, speedup)
}

// RunParallelContext is RunParallel with cancellation: when ctx is
// cancelled the producer stops taking packets from the feed, every worker
// drains its ring and flushes its open windows through the normal
// end-of-stream shutdown, and the call returns ctx.Err() (unless a node
// failure already produced a harder error).
func (e *Engine) RunParallelContext(ctx context.Context, feed trace.Feed, speedup float64) error {
	if len(e.low) == 0 {
		return fmt.Errorf("engine: no low-level nodes")
	}
	if err := e.beginRun(); err != nil {
		return err
	}
	defer e.endRun()
	if err := e.checkpointRunnable(true, speedup); err != nil {
		return err
	}
	if e.tr != nil {
		// Traces ride on FIFO positions that only the serial loop keeps, and
		// a tracer is one goroutine's to use: the run detaches it from every
		// node and operator, so nothing below reads or writes trace state.
		for _, n := range e.Nodes() {
			n.attachTracer(nil)
		}
		defer func() {
			for _, n := range e.Nodes() {
				n.attachTracer(e.tr)
			}
		}()
	}
	pm := e.newPump(ctx, feed, nil, speedup)
	paced := speedup > 0

	// For the length of the run every edge carries batches between
	// goroutines and every emitting goroutine fills batches of its own;
	// afterwards a node fills its readers' input batches again.
	defer func() {
		for _, n := range e.Nodes() {
			for i, sub := range n.subs {
				n.outs[i] = sub.inBatch
			}
		}
		for _, h := range e.high {
			h.in = edge{}
		}
	}()
	// One worker per low-level node, draining a private ring. A selection
	// node's has the source ring's capacity and is offered every packet. A
	// partial-aggregation node fans out into a sharded runtime, a worker per
	// replica: unpaced runs get the exactness barrier, paced runs trade it
	// for zero producer stalls. In paced mode each ring gets an admission
	// gate; unpaced mode backpressures instead (block with no timeout, in
	// effect) and runs ungated.
	var (
		workers []lowWorker
		rings   []*ringbuf.Ring[trace.Packet] // the selection nodes'
		gates   []*ringGate                   // theirs, when paced
		sets    []*shardSet
	)
	for _, low := range e.low {
		if pn := low.partial; pn != nil {
			s, err := e.newShardSet(pn, !paced)
			if err != nil {
				return err
			}
			sets = append(sets, s)
			pn.rt.Store(s)
			for _, sh := range s.shards {
				workers = append(workers, lowWorker{&sh.Node, sh.ring, sh})
			}
			continue
		}
		r, err := ringbuf.New[trace.Packet](e.ring.Cap())
		if err != nil {
			return err
		}
		rings = append(rings, r)
		if paced {
			gates = append(gates, e.newGate(r, low.name, "0"))
		}
		low.openSubs(1)
		low.takeOuts()
		workers = append(workers, lowWorker{low, r, nil})
	}
	for _, h := range e.high {
		h.openSubs(1)
		h.takeOuts()
	}
	allGates := append([]*ringGate(nil), gates...)
	for _, s := range sets {
		allGates = append(allGates, s.gates...)
	}
	e.setGates(allGates)
	e.applyRestoredGate()

	errs := make(chan error, 1) // the first error reported is the run's
	reportErr := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	// Producer: the pump's batches go to the gates a packet at a time
	// (paced) or to the rings whole (unpaced).
	producerDone := make(chan struct{})
	go func() {
		defer close(producerDone)
		// toLow hands packets to the low-level rings. Unpaced, a whole batch
		// moves into each selection ring with one tail publication, and
		// shard routing rides the same batch — routeBatch evaluates the
		// router's GROUP BY columnar over the whole slice — which is safe
		// because the window barrier inside routing orders only the shard
		// rings, never the selection rings. Paced, it is handed one packet:
		// the pump released the packet when it was due, the gates' policy
		// decides what a full ring costs, and the packet must not sit in a
		// routing buffer (pacing simulates arrival times).
		toLow := func(pkts []trace.Packet) {
			for _, g := range gates {
				g.offer(pkts)
			}
			if !paced {
				for _, r := range rings {
					for buf := pkts; len(buf) > 0; {
						if buf = buf[r.PushBatch(buf):]; len(buf) > 0 {
							runtime.Gosched()
						}
					}
				}
			}
			for _, s := range sets {
				if s.routeFailed {
					continue
				}
				if err := s.routeBatch(pkts); err != nil {
					reportErr(err)
					s.routeFailed = true
				}
			}
		}
		lowBatch := make([]trace.Packet, shardBatch)
		for st := pumpPacket; st == pumpPacket; {
			before := e.packets.Load()
			var n int
			n, _, st = pm.fill(lowBatch)
			if !paced {
				toLow(lowBatch[:n])
			} else {
				for i := range n {
					toLow(lowBatch[i : i+1])
				}
			}
			// The probes fire when the count crosses a multiple of their
			// interval, whatever size the batch that crossed it.
			after := e.packets.Load()
			if len(allGates) > 0 && before/512 != after/512 {
				for _, g := range allGates {
					g.sync()
				}
			}
			// Periodic checkpoint probe: quiesce the workers (checkpointing
			// guarantees no partial-aggregation nodes, unpaced), then snapshot
			// if enough windows closed. A write failure is reported, not fatal
			// — the stream keeps flowing and the next probe retries.
			if ck := e.ckpt; ck != nil && ck.cfg.EveryWindows > 0 && before/ckptProbeInterval != after/ckptProbeInterval {
				e.quiesce(workers)
				if err := e.maybeCheckpoint(); err != nil {
					reportErr(err)
				}
			}
		}
		for _, s := range sets {
			s.flushAll()
		}
		// A cancelled run writes its final snapshot after quiescing the
		// workers but before producerDone releases them into their
		// end-of-stream flush (which would mutate the open windows the
		// snapshot must preserve).
		if ck := e.ckpt; ck != nil && pm.cancelled {
			e.quiesce(workers)
			if err := e.writeCheckpoint(); err != nil {
				reportErr(err)
			}
		}
		for _, g := range allGates {
			g.sync()
		}
	}()

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w lowWorker) {
			defer wg.Done()
			e.runLow(w, paced, producerDone, reportErr)
		}(w)
	}

	// High-level consumers: each batch that arrives is the node's input for
	// one stepHigh, the serial loop's step, and goes back to its parent
	// spent. The edge is closed by the parent after it flushes — for a
	// sharded parent, by its last finishing replica. A panic is contained
	// like an error, except nothing is reported: the node is failed, and
	// its input keeps draining and recycling so the parent never blocks and
	// the run's other queries proceed.
	for _, h := range e.high {
		wg.Add(1)
		go func(h *Node) {
			defer wg.Done()
			own := h.inBatch
			dead := false
			for b := range h.in.full {
				if !dead {
					h.inBatch = b
					err := e.stepHigh(h)
					h.handOff()
					if err != nil {
						reportErr(err)
					}
					dead = err != nil || h.failed
				}
				b.Reset()
				h.in.free <- b
				h.in.taken.Add(1)
			}
			h.inBatch = own
			e.finishNode(h, dead, reportErr)
			h.syncTelemetry(0)
		}(h)
	}

	wg.Wait()
	for _, s := range sets {
		s.collect()
	}
	select {
	case err := <-errs:
		return err
	default:
		return ctx.Err()
	}
}

// lowWorker is what one low-level RunParallel worker runs: a node, the
// private ring it drains and, when the node is a shard replica, the shard.
type lowWorker struct {
	node *Node
	ring *ringbuf.Ring[trace.Packet]
	sh   *shard
}

// runLow is the body of every low-level RunParallel worker, a selection
// node's and a shard replica's alike: the serial loop's step over each
// popped batch, then the hand-off. A worker whose node errs or panics does
// not return early — it switches to drain mode (pop, count, discard) so the
// producer's backpressure, window barriers and checkpoint quiesce keep
// moving, and leaves its subscribers' edges without a flush at end of
// stream. What a shard adds: the flush-epoch check before each pop, dying
// with its siblings, the replica's number in a reported error, and its
// /debug mirrors.
func (e *Engine) runLow(w lowWorker, paced bool, producerDone <-chan struct{}, reportErr func(error)) {
	low, ring, sh := w.node, w.ring, w.sh
	if sh != nil {
		report := reportErr
		reportErr = func(err error) {
			report(fmt.Errorf("engine: node %q shard %d: %w", low.name, sh.id, err))
		}
	}
	batch := make([]trace.Packet, shardBatch)
	dead := false // erred (reported) or failed (contained panic)
	// settle ends a step: its rows are handed on and its error reported. A
	// replica that dies takes the node, so its siblings, with it.
	settle := func(err error) {
		low.handOff()
		if err != nil {
			reportErr(err)
		}
		if dead = err != nil || low.failed; dead && sh != nil {
			sh.set.dead.Store(true)
		}
	}
	empty := 0 // polls of an empty ring since the last packet
	for {
		if sh != nil {
			// Window barrier: the producer has drained our ring (it waited for
			// consumed == pushed before bumping the epoch), so every packet of
			// the closing window is already folded — flush the stripe, hand
			// the rows on, and only then ack: every row of the closing window
			// is on the subscribers' edges before a packet of the next one is
			// routed.
			if fe := sh.set.flushEpoch.Load(); fe != sh.ackEpoch.Load() {
				if !dead {
					settle(e.flushNode(low))
				}
				sh.syncDebug()
				sh.ackEpoch.Store(fe)
				continue
			}
			dead = dead || sh.set.dead.Load()
		}
		// Each worker's pops are the source's dequeue stage, as the serial
		// loop's are; a poll that finds the ring empty is waiting, not work.
		dt := e.srcProf.Start()
		n := ring.PopBatch(batch)
		if n == 0 {
			select {
			case <-producerDone:
				if ring.Len() == 0 {
					e.finishNode(low, dead, reportErr)
					low.syncTelemetry(0)
					low.syncRing(ring)
					if sh != nil {
						sh.syncDebug()
					}
					return
				}
			default:
				awaitPackets(&empty, paced)
			}
			continue
		}
		empty = 0
		e.srcProf.Charge(profile.StageDequeue, dt, int64(n), int64(n))
		if dead {
			low.consumed.Add(uint64(n))
			continue
		}
		if d := e.consumerDelay(); d > 0 {
			time.Sleep(d)
		}
		settle(e.guardNode(low, nil, func() error {
			return e.processLowBatch(low, batch[:n])
		}))
		low.consumed.Add(uint64(n))
		low.syncRing(ring)
		if sh != nil {
			sh.syncDebug()
		}
	}
}

// awaitPackets is a RunParallel worker's wait on an empty ring, polls the
// count of polls that found it empty since the last packet. Unpaced, the
// producer is pushing as fast as it can and the worker yields to it. Paced,
// the producer may be asleep until a packet is due: the worker yields while
// one is likely close behind, then naps, so that waiting out the pacer
// does not take a core.
func awaitPackets(polls *int, paced bool) {
	if *polls++; !paced || *polls <= 64 {
		runtime.Gosched()
		return
	}
	time.Sleep(100 * time.Microsecond)
}

// finishNode ends a node's RunParallel worker: flush (unless the node is
// dead — its step is untrusted or already erred), hand the flushed rows
// on, and leave the edges to the nodes reading it, which the last emitter
// out closes.
func (e *Engine) finishNode(n *Node, dead bool, reportErr func(error)) {
	if !dead {
		if err := e.flushNode(n); err != nil {
			reportErr(err)
		}
		n.handOff()
	}
	n.closeSubs()
}
