// Package engine implements the two-level Gigascope architecture of the
// paper's Figure 1: a packet source feeds a ring buffer; low-level query
// nodes drain the ring, performing early data reduction (selection, partial
// aggregation, pushed-down basic sampling); high-level nodes consume the
// tuple streams low-level nodes produce; applications subscribe to any
// node.
//
// The engine substitutes for the paper's dual-CPU testbed: node cost is
// measured as wall-clock nanoseconds spent inside each node's processing
// loop, and utilization is that busy time divided by the simulated
// duration of the packet stream — the fraction of one CPU the node needs
// to keep up with the offered load, the quantity Figures 5 and 6 plot.
package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"streamop/internal/checkpoint"
	"streamop/internal/gsql"
	"streamop/internal/operator"
	"streamop/internal/profile"
	"streamop/internal/ringbuf"
	"streamop/internal/telemetry"
	"streamop/internal/trace"
	"streamop/internal/tracing"
	"streamop/internal/tuple"
)

// NodeStats reports one node's activity and cost.
type NodeStats struct {
	Name      string
	TuplesIn  int64
	TuplesOut int64
	// Busy is the wall-clock time spent inside this node's processing
	// loop (including per-tuple conversion for low-level nodes).
	Busy time.Duration
	// Operator carries the underlying operator's counters.
	Operator operator.Stats
}

// step is the one thing that differs between kinds of node: what the node
// runs over its input batch. The sampling operator is one (selection,
// sampling and full aggregation, at either level) and a low-level query's
// direct-mapped partial-aggregation table the other (operator.Table,
// partial.go).
// Everything around the step — conversion, counters, containment, the
// emit, the edges, the workers — is Node's and is written once.
type step interface {
	ProcessBatch(*tuple.Batch) error
	Flush() error
	// Stats().Windows counts closed windows: what the checkpoint schedule
	// watches.
	Stats() operator.Stats
	Snapshot(*checkpoint.Encoder) error
	Restore(*checkpoint.Decoder) error
	SetCollector(c *telemetry.Collector, node string)
	SetProfile(*profile.NodeProfile)
}

// Node is one query node. Low-level nodes consume packets; high-level
// nodes consume another node's output tuples.
type Node struct {
	name string
	plan *gsql.Plan
	step step
	// partial is the PartialNode this node is the base of; nil for an
	// operator-backed node.
	partial *PartialNode
	// set is the sharded runtime this node is a replica in (see shard.go);
	// nil for any other node.
	set    *shardSet
	schema *tuple.Schema // output schema
	subs   []*Node
	// outs[i] is the batch this node's emissions fill for subs[i] (see edge).
	outs     []*tuple.Batch
	apps     []func(tuple.Tuple) error
	busy     time.Duration
	tuplesIn int64
	out      int64
	low      bool
	// Failure containment (see recovery.go): a panic inside the node's
	// operator marks the node failed instead of crashing the process. The
	// fields are owned by the goroutine processing the node; cross-goroutine
	// readers go through Engine.Failures.
	failed    bool
	failMsg   string
	failStack string
	// consumed counts packets this node's RunParallel worker has fully
	// processed (or drained, once dead): the producer's checkpoint quiesce
	// and a sharded node's window barrier wait for it to catch up with the
	// ring's push count (see checkpoint.go, shard.go).
	consumed atomic.Uint64
	// nm holds this node's telemetry gauges; nil when uninstrumented.
	nm *nodeMetrics
	// prof is this node's cost profile; nil when profiling is off (see
	// profile.go).
	prof *profile.NodeProfile
	// inBatch is the node's columnar input (see batch.go): what the next
	// step hands to the operator whole. A low-level node's holds the
	// packets of the batch being processed, converted; a high-level node's
	// holds the rows that came over the edge from its parent. Owned by the
	// goroutine that runs the node.
	inBatch *tuple.Batch
	// appRow is callApps' scratch: the row the application callbacks are
	// shown, overwritten by the next.
	appRow tuple.Tuple
	// deliver, when set, is the installed query's delivery (session.go),
	// handed each run of output rows whole.
	deliver func(cols []*tuple.Column)
	// in is the edge from the node's parent (high-level nodes only).
	in edge
	// Provenance tracing (see tracing.go). tr is nil when tracing is off;
	// trPend lists the traced rows of inBatch by position, so traces ride on
	// that instead of tuple metadata.
	tr     *tracing.Tracer
	trPend []tracing.RowTraces
}

// Schema returns the node's output stream schema.
func (n *Node) Schema() *tuple.Schema { return n.schema }

// Subscribe registers an application callback for the node's output. The
// row is lent, whatever kind of node emitted it: it is the callback's for
// the length of the call only and its storage is reused for the next row,
// so copy (Tuple.Clone) what is kept.
func (n *Node) Subscribe(fn func(tuple.Tuple) error) {
	n.apps = append(n.apps, fn)
}

// Stats returns the node's counters.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		Name:      n.name,
		TuplesIn:  n.tuplesIn,
		TuplesOut: n.out,
		Busy:      n.busy,
		Operator:  n.step.Stats(),
	}
}

// edge is the hop from a node to one node reading it: a columnar batch the
// parent's emissions append to, the one way a tuple gets from a query into
// the buffer of the query above it (paper Fig. 1). The batch being filled
// is the emitting node's (Node.outs, one per reader), and which batch that
// is gets decided when a run starts. On the serial path it is the reader's
// inBatch, and drainHigh runs the reader over it in place. Under
// RunParallel it is a batch the emitting goroutine owns: between steps
// handOff sends it to the reader's worker over full and takes a spent one
// from free to fill next, so a reader that falls behind blocks its parent
// (backpressure, bounded memory) and nothing allocates once the batches
// have grown. The shard replicas of one node each fill batches of their
// own and share the edge: producers counts the emitting goroutines still
// running, and the last one out closes full; passed counts the batches sent
// over full, taken the ones the reader has finished with, and a checkpoint
// waits for them to agree (see quiesce).
type edge struct {
	full          chan *tuple.Batch // nil on the serial path
	free          chan *tuple.Batch
	producers     atomic.Int32
	passed, taken atomic.Uint64
}

// edgeDepth is how many filled batches an edge holds before its parent
// blocks: enough for the two sides to overlap, small enough that a slow
// reader stops its parent within a few steps.
const edgeDepth = 4

// openSubs readies the edges out of n for a RunParallel run in which the
// given number of goroutines emit n's rows: one batch for each of them to
// fill, which takeOuts hands them, and edgeDepth in flight. Both channels
// hold every batch, so only waiting for a spent batch ever blocks.
func (n *Node) openSubs(producers int) {
	for _, sub := range n.subs {
		batches := producers + edgeDepth
		sub.in.full = make(chan *tuple.Batch, batches)
		sub.in.free = make(chan *tuple.Batch, batches)
		sub.in.producers.Store(int32(producers))
		for i := 0; i < batches; i++ {
			sub.in.free <- tuple.NewBatch(n.schema, 64)
		}
	}
}

// takeOuts gives the node — or one shard replica of the node whose edges
// these are — a batch of its own to fill for every reader.
func (n *Node) takeOuts() {
	n.outs = make([]*tuple.Batch, len(n.subs))
	for i, sub := range n.subs {
		n.outs[i] = <-sub.in.free
	}
}

// closeSubs ends the node's part in the edges out of it: the last emitting
// goroutine to leave closes them, which ends the readers' workers.
func (n *Node) closeSubs() {
	for _, sub := range n.subs {
		if sub.in.producers.Add(-1) == 0 {
			close(sub.in.full)
		}
	}
}

// pass sends out to the reader's worker when it holds rows and returns the
// batch to fill next.
func (ed *edge) pass(out *tuple.Batch) *tuple.Batch {
	if out.Len() == 0 {
		return out
	}
	ed.passed.Add(1)
	ed.full <- out
	return <-ed.free
}

// handOff passes what the node emitted in the step just finished to the
// workers of the nodes reading it (RunParallel; never from inside
// emitCols).
func (n *Node) handOff() {
	for i, sub := range n.subs {
		n.outs[i] = sub.in.pass(n.outs[i])
	}
}

// emitCols is a node's one emit, the sink of its operator or partial
// table: a run of output rows, as columns, fans out to subscribers and
// applications. Each subscriber receives its own copy — the values moved
// column to column into the batch on the edge to it — and the copy is
// charged to this node, as Gigascope charges a low-level query its copy of
// each forwarded tuple into another process (the paper's Figure 6); in one
// process it costs about 3 ns a row for Figure 6's five-column tap (2-vCPU
// Xeon). The traces riding on the run's rows come staged by position in it
// (Tracer.Stage), and they follow their rows from here.
func (n *Node) emitCols(cols []*tuple.Column) error {
	n.out += int64(cols[0].Len())
	rts := n.tr.TakeStaged()
	for si, sub := range n.subs {
		// A traced row follows its first subscriber only, keyed by its
		// position in the subscriber's input batch.
		if si == 0 && len(rts) > 0 {
			sub.enqueueTraces(n.name, n.outs[0].Len(), rts)
		}
		n.outs[si].AppendCols(cols)
	}
	if len(n.subs) == 0 {
		// Application boundary: the traced tuple's group reached the DAG's
		// edge — the one successful terminal disposition.
		for _, rt := range rts {
			for _, tt := range rt.TTs {
				tt.Finish("emitted")
			}
		}
	}
	return n.callApps(cols)
}

// callApps hands the run to the installed query's delivery whole, then
// shows its rows to the application callbacks one after the other in the
// node's scratch tuple: lent, so a callback copies what it keeps.
// The replicas of a sharded node take turns, a run of rows each: callbacks
// are user code and must not see concurrent calls.
func (n *Node) callApps(cols []*tuple.Column) error {
	if len(n.apps) == 0 && n.deliver == nil {
		return nil
	}
	if s := n.set; s != nil {
		s.appMu.Lock()
		defer s.appMu.Unlock()
	}
	if n.deliver != nil {
		n.deliver(cols)
	}
	if len(n.apps) == 0 {
		return nil
	}
	for i, rows := 0, cols[0].Len(); i < rows; i++ {
		n.appRow = tuple.RowOf(n.appRow, cols, i)
		for _, app := range n.apps {
			if err := app(n.appRow); err != nil {
				return err
			}
		}
	}
	return nil
}

// Engine wires a packet feed to a tree of query nodes and runs them: to
// completion on one goroutine, deterministically (Run); as a long-lived
// standing-query session on the same serial loop (Start, session.go); or
// with a goroutine per node (RunParallel, parallel.go). All three take
// their packets from the same pump (pump.go), offer them to rings through
// the same gates (overload.go) and run the same node steps over the same
// columnar edges.
type Engine struct {
	ring  *ringbuf.Ring[trace.Packet]
	low   []*Node // registration order, operator-backed and partial alike
	high  []*Node // topological order (parents before children)
	names map[string]bool

	// The stream clock (see pump.go). Atomics: the pump writes them per
	// batch while HTTP handlers (gsqd's /healthz, the telemetry surface)
	// read them mid-run.
	firstTS, lastTS atomic.Uint64
	packets         atomic.Int64
	sawPacket       atomic.Bool

	// Telemetry (see telemetry.go); ringPeak tracks the source ring's
	// high-water mark unconditionally.
	tel      *telemetry.Collector
	sm       *sourceMetrics
	ringPeak atomic.Int64

	// Provenance tracer (see tracing.go); nil when tracing is off.
	tr *tracing.Tracer

	// Cost profiling (see profile.go); the pointer is atomic so the
	// /debug/profile HTTP source can read it mid-run.
	profFields

	// Checkpoint schedule and restore state (see checkpoint.go); nil when
	// checkpointing is off.
	ckpt *ckptState
	// afterBoundary, when set (tests), runs on the pump after a boundary
	// that applied session commands.
	afterBoundary func()

	// Contained node failures (see recovery.go), mutex-guarded because
	// RunParallel workers append concurrently and /debug reads them live.
	failMu   sync.Mutex
	failures []NodeFailure

	// Overload admission and fault injection (see overload.go).
	gateRegistry
	// shardCap overrides the shard rings' capacity when > 0 (tests use
	// deliberately tiny rings to force overload).
	shardCap int

	// Standing-query session state (see session.go).
	sessionFields
}

// New returns an engine with a ring buffer of the given capacity
// (Gigascope uses fixed-size buffers at the low level).
func New(ringSize int) (*Engine, error) {
	ring, err := ringbuf.New[trace.Packet](ringSize)
	if err != nil {
		return nil, err
	}
	e := &Engine{ring: ring, names: map[string]bool{}}
	e.handles = map[string]*QueryHandle{}
	e.taps = map[string]*tap{}
	if c := telemetry.Default(); c.Enabled() {
		e.SetCollector(c)
	}
	if tr := tracing.Default(); tr != nil {
		e.SetTracer(tr)
	}
	return e, nil
}

func (e *Engine) checkName(name string) error {
	if name == "" {
		return fmt.Errorf("engine: node name must not be empty")
	}
	if e.names[name] {
		return fmt.Errorf("engine: duplicate node name %q", name)
	}
	e.names[name] = true
	return nil
}

// AddLowLevel registers a low-level query node: its plan must read the PKT
// schema. Low-level queries perform the early data reduction Gigascope
// depends on; currently selection and sampling/aggregation plans are both
// accepted (the paper notes real Gigascope restricts low-level nodes to
// selection and partial aggregation — the CPU experiments quantify why).
func (e *Engine) AddLowLevel(name string, plan *gsql.Plan) (*Node, error) {
	if plan.Schema.Name() != trace.Schema().Name() {
		return nil, fmt.Errorf("engine: low-level node %q must read PKT, got %q", name, plan.Schema.Name())
	}
	schema, err := plan.OutputSchema(name)
	if err != nil {
		return nil, err
	}
	if err := e.checkName(name); err != nil {
		return nil, err
	}
	n := &Node{name: name, plan: plan, schema: schema, low: true}
	if err := n.runOperator(); err != nil {
		return nil, err
	}
	e.attach(n)
	e.low = append(e.low, n)
	return n, nil
}

// runOperator gives the node the sampling operator over its plan as its
// step.
func (n *Node) runOperator() error {
	op, err := operator.New(n.plan, nil)
	if err != nil {
		return err
	}
	op.SetColumnSink(n.emitCols)
	n.step = op
	return nil
}

// attach attaches the engine's collector, tracer and profiler to a
// node being registered.
func (e *Engine) attach(n *Node) {
	if e.tel != nil {
		e.instrumentNode(n)
	}
	if e.tr != nil {
		n.attachTracer(e.tr)
	}
	n.attachProfile(e.Profiler())
}

// AddHighLevel registers a high-level node reading parent's output stream.
func (e *Engine) AddHighLevel(name string, parent *Node, plan *gsql.Plan) (*Node, error) {
	if parent == nil {
		return nil, fmt.Errorf("engine: high-level node %q needs a parent", name)
	}
	if plan.Schema != parent.schema {
		return nil, fmt.Errorf("engine: node %q plan must be analyzed against parent %q's output schema", name, parent.name)
	}
	schema, err := plan.OutputSchema(name)
	if err != nil {
		return nil, err
	}
	if err := e.checkName(name); err != nil {
		return nil, err
	}
	n := &Node{name: name, plan: plan, schema: schema}
	// Starts small and grows to the parent's largest burst: a session can
	// hold a thousand queries on one tap, most of them nearly idle.
	n.inBatch = tuple.NewBatch(parent.schema, 64)
	if err := n.runOperator(); err != nil {
		return nil, err
	}
	e.attach(n)
	parent.subs = append(parent.subs, n)
	parent.outs = append(parent.outs, n.inBatch)
	e.high = append(e.high, n)
	return n, nil
}

// Run drains the feed through the node tree to completion.
func (e *Engine) Run(feed trace.Feed) error {
	return e.RunContext(context.Background(), feed)
}

// RunContext is Run with cancellation: when ctx is cancelled the pump stops
// taking packets from the feed, the ring drains, every node flushes its
// open windows bottom-up (so telemetry stays boundary-consistent), and
// RunContext returns ctx.Err(). A context.Background() run is identical to
// Run.
func (e *Engine) RunContext(ctx context.Context, feed trace.Feed) error {
	if err := e.beginRun(); err != nil {
		return err
	}
	defer e.endRun()
	if len(e.low) == 0 {
		return fmt.Errorf("engine: no low-level nodes")
	}
	return e.runSerial(ctx, feed, nil, 0)
}

// runSerial is the serial loop of the one-shot Run (s is nil) and of a
// standing-query session: fill the source ring from the pump, drain it
// through the node tree, repeat. What a session adds — commands applied at
// drained-ring boundaries, pacing, Drain — is the pump's to know (see
// pump.go and session.go).
func (e *Engine) runSerial(ctx context.Context, feed trace.Feed, s *session, speedup float64) error {
	if err := e.checkpointRunnable(false, 0); err != nil {
		return err
	}
	pm := e.newPump(ctx, feed, s, speedup)
	e.srcGate = e.newGate(e.ring, "source", "0")
	e.setGates([]*ringGate{e.srcGate})
	e.applyRestoredGate()
	const batch = 512
	pkts := make([]trace.Packet, batch)
	for st := pumpPacket; st != pumpEnd; {
		if err := pm.boundary(); err != nil {
			return err
		}
		// Producer: fill the ring from the pump, one offer per batch. A batch
		// never asks for more than the ring has room for, so the fill ends
		// with the same packet a packet-at-a-time fill would.
		for free := e.ring.Cap() - e.ring.Len(); free > 0; free = e.ring.Cap() - e.ring.Len() {
			n, waited, next := pm.fill(pkts[:min(free, batch)])
			e.offerSource(pkts[:n])
			// A pump that caught up with the wall clock drains what is
			// buffered now instead of letting rows sit until the ring fills.
			if st = next; st != pumpPacket || waited {
				break
			}
		}
		e.noteRingPeak()
		e.syncSourceRing()
		// Low-level consumers drain the ring in batches.
		for {
			base := e.ring.Popped()
			dt := e.srcProf.Start()
			n := e.ring.PopBatch(pkts)
			e.srcProf.Charge(profile.StageDequeue, dt, int64(n), int64(n))
			if n == 0 {
				break
			}
			if d := e.consumerDelay(); d > 0 {
				time.Sleep(d)
			}
			// Traced packets follow the first low-level node with trace
			// sites through the DAG (one terminal disposition per trace).
			var rts []tracing.RowTraces
			if e.tr != nil {
				rts = e.tr.TakeSource(base, n)
			}
			for _, low := range e.low {
				var follow []tracing.RowTraces
				if low.tr != nil {
					follow, rts = rts, nil
				}
				if err := e.guardNode(low, follow, func() error {
					return e.processLowBatch(low, pkts[:n])
				}); err != nil {
					return err
				}
			}
			if err := e.drainHigh(); err != nil {
				return err
			}
		}
		e.srcGate.sync()
		e.syncQuotaMetrics()
		// The ring is drained and every node sits at a tuple boundary: the
		// one place the serial loop can snapshot a resumable state.
		if err := e.maybeCheckpoint(); err != nil {
			return err
		}
	}
	// A run that ends with stream left to resume writes its final snapshot
	// before the bottom-up flush mutates every open window: the snapshot
	// must describe the state a restored run resumes from, not the flushed
	// aftermath.
	if pm.resumable() && e.ckpt != nil {
		if err := e.writeCheckpoint(); err != nil {
			return err
		}
	}
	// End of stream (or cancellation): flush bottom-up.
	for _, low := range e.low {
		if err := e.flushNode(low); err != nil {
			return err
		}
	}
	if err := e.drainHigh(); err != nil {
		return err
	}
	for _, h := range e.high {
		if err := e.flushNode(h); err != nil {
			return err
		}
		if err := e.drainHigh(); err != nil {
			return err
		}
	}
	for _, n := range e.Nodes() {
		n.syncTelemetry(0)
	}
	e.syncSourceRing()
	e.srcGate.sync()
	e.syncQuotaMetrics()
	// Safety net: any trace still in flight (e.g. queued behind a node with
	// no low-level consumer) terminates rather than leaking open.
	e.tr.FinishOpen("stream_end")
	if pm.cancelled {
		return ctx.Err()
	}
	return nil
}

// offerSource offers the batch the pump just took to the source ring
// through its gate (every ring offer in the engine goes through a
// ringGate), telling the provenance tracer what became of a traced packet.
// The serial loop only. A traced packet is offered on its own, between the
// runs before and after it, so its record sees the ring as the packet left
// it. The fill loop guarantees ring space, so under drop-tail and block the
// push cannot fail — block never waits here — and the dropped outcome is
// reachable only defensively.
func (e *Engine) offerSource(pkts []trace.Packet) {
	// NextSeq is an inlinable field read, so a batch with no traced packet
	// skips the tracer's offer machinery entirely.
	base := uint64(e.packets.Load()) - uint64(len(pkts))
	for e.tr != nil {
		i := e.tr.NextSeq() - base
		if i >= uint64(len(pkts)) {
			break
		}
		e.srcGate.offer(pkts[:i])
		tt, idx := e.tr.SourceOffer(base+i), e.ring.Pushed()
		switch shed, dropped := e.srcGate.offer(pkts[i : i+1]); {
		case shed > 0:
			e.tr.SourceShed(tt, e.ring.Len())
		case dropped > 0:
			e.tr.SourceDropped(tt, e.ring.Len())
		default:
			e.tr.SourceEnqueued(tt, idx, e.ring.Len())
		}
		pkts, base = pkts[i+1:], base+i+1
	}
	e.srcGate.offer(pkts)
}

// flushNode closes the node's open window at end of stream, charging the
// node. A failed node is skipped (guardNode).
func (e *Engine) flushNode(n *Node) error {
	return e.guardNode(n, nil, func() error {
		start := time.Now()
		err := n.step.Flush()
		n.busy += time.Since(start)
		if err != nil {
			return fmt.Errorf("engine: node %q: %w", n.name, err)
		}
		return nil
	})
}

// drainHigh runs every high-level node over the rows its parent has
// appended to its input batch, in topological order so cascades settle
// within one call.
func (e *Engine) drainHigh() error {
	for _, h := range e.high {
		if err := e.stepHigh(h); err != nil {
			return err
		}
	}
	return nil
}

// stepHigh is one step of a high-level node, on every path: the whole
// input batch, traced rows and all, goes to the operator's ProcessBatch,
// the same kernels and row-order walk a low-level node runs over packets,
// and the batch is empty afterwards. A failed node's input is discarded
// (guardNode skips the step) so its parent keeps emitting without
// unbounded buildup.
func (e *Engine) stepHigh(h *Node) error {
	depth := h.inBatch.Len()
	if depth == 0 {
		return nil
	}
	if h.nm != nil && !h.failed {
		h.nm.queue.Set(float64(depth))
	}
	err := e.guardNode(h, h.trPend, func() error {
		start := time.Now()
		h.tuplesIn += int64(depth)
		err := h.step.ProcessBatch(h.inBatch)
		h.busy += time.Since(start)
		if err != nil {
			return fmt.Errorf("engine: node %q: %w", h.name, err)
		}
		// The depth reported is the one this step found: the batch is
		// empty again by the time anyone could read the gauge.
		h.syncTelemetry(depth)
		return nil
	})
	h.inBatch.Reset()
	h.trPend = h.trPend[:0]
	return err
}

// StreamDuration returns the simulated duration of the stream the pump has
// taken from the feed. Read mid-run it may cover up to a ring and a batch
// the nodes have not processed yet: the pump publishes the clock once per
// batch, before it offers the batch.
func (e *Engine) StreamDuration() time.Duration {
	if !e.sawPacket.Load() {
		return 0
	}
	return time.Duration(e.lastTS.Load() - e.firstTS.Load())
}

// Packets returns the number of packets the pump has taken from the feed,
// every one of them offered to a ring. Read mid-run it may count up to a
// ring and a batch the nodes have not processed yet, as StreamDuration.
func (e *Engine) Packets() int64 { return e.packets.Load() }

// Drops returns packets dropped at the ring buffer.
func (e *Engine) Drops() uint64 { return e.ring.Drops() }

// RingCap returns the source ring buffer's capacity.
func (e *Engine) RingCap() int { return e.ring.Cap() }

// Utilization returns node busy time divided by the simulated stream
// duration: the fraction of one CPU the node consumes to keep up with the
// offered load (the y-axis of the paper's Figures 5 and 6).
func (e *Engine) Utilization(n *Node) float64 {
	d := e.StreamDuration()
	if d <= 0 {
		return 0
	}
	return float64(n.busy) / float64(d)
}

// Nodes returns every node, low-level first, each level in registration
// order.
func (e *Engine) Nodes() []*Node {
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	return e.nodes()
}

// nodes is Nodes for a caller that holds topoMu or owns the topology.
func (e *Engine) nodes() []*Node {
	return append(append(make([]*Node, 0, len(e.low)+len(e.high)), e.low...), e.high...)
}
