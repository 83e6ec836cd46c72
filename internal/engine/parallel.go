package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"streamop/internal/ringbuf"
	"streamop/internal/trace"
	"streamop/internal/tuple"
)

// RunParallel runs the node tree with real concurrency, the way Gigascope
// deploys it: the packet producer, every low-level node and every
// high-level node each run on their own goroutine. Each low-level selection
// node drains a private SPSC ring fed by the producer; each low-level
// partial-aggregation node fans out into shard replicas with private rings
// and private group-table stripes (see shard.go), routed by group-key hash
// so no shard shares state. The nodes themselves run as they do under Run —
// the same step over a popped packet batch, the same step over a
// high-level node's input batch, the same emit — and the edge between two
// nodes is the same columnar batch (see edge): a node's goroutine fills a
// batch of its own and, between steps, passes it to the reader's goroutine
// over a bounded channel, taking a spent one back. A reader that falls
// behind blocks its parent there, in both modes.
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
	if len(e.low) == 0 && len(e.lowPartial) == 0 {
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

	// Private ring per low-level selection node, same capacity as the
	// source ring. In paced mode each ring gets an admission gate; unpaced
	// mode backpressures instead (block with no timeout, in effect) and
	// runs ungated.
	rings := make([]*ringbuf.Ring[trace.Packet], len(e.low))
	var gates []*ringGate
	if speedup > 0 {
		gates = make([]*ringGate, len(e.low))
	}
	for i, low := range e.low {
		r, err := ringbuf.New[trace.Packet](e.ring.Cap())
		if err != nil {
			return err
		}
		rings[i] = r
		if gates != nil {
			gates[i] = e.newGate(e.resolveOverload(low.plan, low.name, "0"), r, low.name, "0")
		}
	}
	// The edge into every high-level node carries batches between
	// goroutines for the length of the run (a sharded node's edges open in
	// newShardSet, one producer per replica).
	defer func() {
		for _, h := range e.high {
			h.in = edge{out: h.inBatch}
		}
	}()
	open := func(n *Node) {
		n.openSubs(1)
		for _, sub := range n.subs {
			sub.in.out = <-sub.in.free
		}
	}
	for _, low := range e.low {
		open(low)
	}
	for _, h := range e.high {
		open(h)
	}
	// Sharded runtime per partial-aggregation node; unpaced runs get the
	// exactness barrier, paced runs trade it for zero producer stalls.
	sets := make([]*shardSet, len(e.lowPartial))
	allGates := append([]*ringGate(nil), gates...)
	for i, pn := range e.lowPartial {
		s, err := e.newShardSet(pn, speedup <= 0)
		if err != nil {
			return err
		}
		sets[i] = s
		pn.rt.Store(s)
		allGates = append(allGates, s.gates...)
	}
	e.setGates(allGates)
	e.applyRestoredGate()

	nWorkers := len(e.low) + len(e.high)
	for _, s := range sets {
		nWorkers += len(s.workers)
	}
	errs := make(chan error, 1+nWorkers)
	reportErr := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	// Producer: the pump's packets go to the gates one by one (paced) or to
	// the rings in batches (unpaced).
	producerDone := make(chan struct{})
	go func() {
		defer close(producerDone)
		scratch := make(tuple.Tuple, trace.NumFields)
		// Batched transfer into the selection rings (unpaced mode): one
		// tail publication per slice instead of per packet. Shard routing
		// rides the same batches — routeBatch evaluates the router's GROUP
		// BY columnar over the whole slice — which is safe to defer because
		// the window barrier inside routing orders only the shard rings,
		// never the selection rings.
		lowBatch := make([]trace.Packet, 0, shardBatch)
		flushLow := func() {
			for _, r := range rings {
				buf := lowBatch
				for len(buf) > 0 {
					n := r.PushBatch(buf)
					buf = buf[n:]
					if len(buf) > 0 {
						runtime.Gosched()
					}
				}
			}
			for _, s := range sets {
				if s.routeFailed {
					continue
				}
				if err := s.routeBatch(lowBatch, scratch); err != nil {
					reportErr(err)
					s.routeFailed = true
				}
			}
			lowBatch = lowBatch[:0]
		}
		var p trace.Packet
		for {
			if _, st := pm.next(&p); st != pumpPacket {
				break
			}
			if speedup > 0 {
				// The pump released the packet when it was due; offer it
				// once: the gate's policy decides what a full ring costs.
				for _, g := range gates {
					g.offer(&p)
				}
				if len(sets) > 0 {
					// Paced packets must not sit in routing buffers (pacing
					// simulates arrival times), so route them one by one;
					// the unpaced path routes whole batches from flushLow.
					p.AppendTuple(scratch)
					for _, s := range sets {
						if s.routeFailed {
							continue
						}
						if err := s.route(p, scratch); err != nil {
							reportErr(err)
							s.routeFailed = true
						}
					}
				}
			} else {
				lowBatch = append(lowBatch, p)
				if len(lowBatch) == cap(lowBatch) {
					flushLow()
				}
			}
			if len(allGates) > 0 && e.packets.Load()%512 == 0 {
				for _, g := range allGates {
					g.sync()
				}
			}
			// Periodic checkpoint probe: quiesce the workers (checkpointing
			// guarantees no partial-aggregation nodes, unpaced), then snapshot
			// if enough windows closed. A write failure is reported, not fatal
			// — the stream keeps flowing and the next probe retries.
			if ck := e.ckpt; ck != nil && ck.cfg.EveryWindows > 0 && e.packets.Load()%ckptProbeInterval == 0 {
				flushLow()
				e.quiesce(rings)
				if err := e.maybeCheckpoint(); err != nil {
					reportErr(err)
				}
			}
		}
		flushLow()
		for _, s := range sets {
			s.flushAll()
		}
		// A cancelled run writes its final snapshot after quiescing the
		// workers but before producerDone releases them into their
		// end-of-stream flush (which would mutate the open windows the
		// snapshot must preserve).
		if ck := e.ckpt; ck != nil && pm.cancelled {
			e.quiesce(rings)
			if err := e.writeCheckpoint(); err != nil {
				reportErr(err)
			}
		}
		for _, g := range allGates {
			g.sync()
		}
	}()

	var wg sync.WaitGroup

	// Low-level selection consumers: the serial loop's step over each
	// popped batch, then the hand-off. A worker whose node errors or panics
	// does not return early — it switches to drain mode (pop, count,
	// discard) so the producer's backpressure and checkpoint quiesce keep
	// moving, and closes its subscribers' edges without a flush at end of
	// stream.
	for i, low := range e.low {
		wg.Add(1)
		go func(low *Node, ring *ringbuf.Ring[trace.Packet]) {
			defer wg.Done()
			batch := make([]trace.Packet, shardBatch)
			dead := false // erred (reported) or failed (contained panic)
			empty := 0    // polls of an empty ring since the last packet
			for {
				n := ring.PopBatch(batch)
				if n == 0 {
					select {
					case <-producerDone:
						if ring.Len() == 0 {
							e.finishNode(low, dead, reportErr)
							return
						}
					default:
						awaitPackets(&empty, speedup > 0)
					}
					continue
				}
				empty = 0
				if dead {
					low.consumed.Add(uint64(n))
					continue
				}
				if d := e.consumerDelay(); d > 0 {
					time.Sleep(d)
				}
				err := e.guardNode(low, func() error {
					return e.processLowBatch(low, batch[:n], nil)
				})
				low.handOff()
				low.consumed.Add(uint64(n))
				if err != nil {
					reportErr(err)
				}
				dead = err != nil || low.failed
				low.syncRing(ring)
			}
		}(low, rings[i])
	}

	// Shard workers for partial-aggregation nodes.
	for _, s := range sets {
		for _, w := range s.workers {
			wg.Add(1)
			go func(w *shardWorker) {
				defer wg.Done()
				w.run(producerDone, reportErr)
			}(w)
		}
	}

	// High-level consumers: each batch that arrives is the node's input for
	// one stepHigh, the serial loop's step, and goes back to its parent
	// spent. The edge is closed by the parent after it flushes — for a
	// sharded parent, by its last finishing shard worker. A panic is
	// contained like an error, except nothing is reported: the node is
	// failed, and its input keeps draining and recycling so the parent
	// never blocks and the run's other queries proceed.
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
		}(h)
	}

	wg.Wait()
	for i, low := range e.low {
		low.syncTelemetry(0)
		low.syncRing(rings[i])
	}
	for _, s := range sets {
		s.collect()
	}
	for _, h := range e.high {
		h.syncTelemetry(0)
	}
	select {
	case err := <-errs:
		return err
	default:
		return ctx.Err()
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
// dead — its operator is untrusted or already erred), hand the flushed
// rows on, and close the edges to the nodes reading it.
func (e *Engine) finishNode(n *Node, dead bool, reportErr func(error)) {
	if !dead {
		if err := e.flushNode(n); err != nil {
			reportErr(err)
		}
		n.handOff()
	}
	for _, sub := range n.subs {
		close(sub.in.full)
	}
}
