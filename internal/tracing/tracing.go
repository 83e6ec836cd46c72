// Package tracing adds the causal layer on top of internal/telemetry's
// counters: deterministic 1-in-N provenance tracing of individual tuples
// through the two-level engine. Telemetry answers *how much* (per-window
// sample sizes, cleaning counts); tracing answers *why this tuple* — why a
// group was evicted, by which cleaning phase, at what subset-sum
// threshold; why a packet never reached the output (WHERE, HAVING, a full
// ring).
//
// A Tracer samples source packets with a deterministic schedule drawn
// from internal/xrand, so a run with the same seed traces the same
// packets (timestamps differ, the selection does not). Each traced packet
// becomes a TupleTrace that accumulates spans at every stage of the DAG —
// ring enqueue/dequeue (wait time), WHERE evaluation, group-table lookup,
// stateful-function invocations, cleaning evictions, HAVING, emission and
// high-level transfer — and ends with exactly one terminal disposition:
//
//	emitted              the tuple's group reached an application
//	where_rejected       the admission predicate rejected the tuple
//	having_rejected      the window-close HAVING dropped its group
//	evicted(cleaning=k)  cleaning phase k evicted its group
//	ring_dropped         the source ring was full
//	shed                 the overload admission gate rejected the packet
//	                     ahead of the ring (internal/overload shed-sample)
//	stream_end           (defensive; should not occur under Engine.Run)
//
// Spans are exported two ways: streamed through an attached
// telemetry.Collector's JSONL event log as trace_span / trace_done
// events, and buffered for WriteChromeTrace, which renders the run as
// Chrome trace-event JSON loadable in Perfetto (one thread lane per
// traced tuple).
//
// The Tracer is designed for the engine's single-threaded Run path, where
// traces ride each batch by row position (RowTraces), in and out of every
// step. Engine.RunParallel ignores tracing.
package tracing

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"streamop/internal/telemetry"
	"streamop/internal/xrand"
)

// Config parameterizes a Tracer.
type Config struct {
	// Every samples on average one in Every source packets (gaps are
	// drawn uniformly from [1, 2*Every-1], mean Every). Values < 1 are
	// treated as 1 (trace everything).
	Every int
	// Seed seeds the sampling schedule; runs with equal seeds trace the
	// same packet sequence numbers.
	Seed uint64
	// MaxSpans bounds the buffered span count for WriteChromeTrace
	// (disposition records are always retained). 0 means DefMaxSpans.
	MaxSpans int
}

// DefMaxSpans is the default span-buffer bound.
const DefMaxSpans = 1 << 16

// Tracer samples source tuples and records their journey. It is not safe
// for concurrent use except where noted: the span buffer is internally
// locked, so WriteChromeTrace and Summary may be called from other
// goroutines, but the sampling/current-context methods belong to the
// engine's run loop.
type Tracer struct {
	every uint64
	rng   *xrand.Rand
	next  uint64 // next source sequence number to trace
	ids   int64  // trace id allocator

	col atomic.Pointer[telemetry.Collector]

	// Engine-side context (single-threaded run loop).
	cur    []RowTraces   // traced rows of the batch being walked, not yet taken
	staged []RowTraces   // traced rows of the run of output rows being filled
	srcQ   []*TupleTrace // FIFO of enqueued-but-not-dequeued source traces

	mu           sync.Mutex
	base         time.Time
	spans        []Event
	maxSpans     int
	droppedSpans int64
	started      int64
	finished     int64
	byDisp       map[string]int64
}

// New returns a tracer sampling 1-in-cfg.Every source tuples.
func New(cfg Config) *Tracer {
	every := cfg.Every
	if every < 1 {
		every = 1
	}
	max := cfg.MaxSpans
	if max <= 0 {
		max = DefMaxSpans
	}
	t := &Tracer{
		every:    uint64(every),
		rng:      xrand.New(cfg.Seed),
		base:     time.Now(),
		maxSpans: max,
		byDisp:   make(map[string]int64),
	}
	t.next = t.gap() - 1 // first traced sequence number
	return t
}

// gap draws the next sampling gap: uniform in [1, 2*every-1], mean every.
func (t *Tracer) gap() uint64 {
	if t.every == 1 {
		return 1
	}
	return 1 + t.rng.Uint64n(2*t.every-1)
}

// SetCollector attaches a telemetry collector; spans are then mirrored to
// its JSONL event log (if one is configured) as trace_span events.
func (t *Tracer) SetCollector(c *telemetry.Collector) {
	if t == nil {
		return
	}
	t.col.Store(c)
}

// TupleTrace is one sampled tuple's journey through the DAG.
type TupleTrace struct {
	tr  *Tracer
	id  int64
	seq uint64 // source sequence number (offered packets)

	enqIdx  uint64    // position in the source ring's push order
	enqTime time.Time // ring enqueue / high-level queue append time

	done        bool
	disposition string
}

// Disposition returns the terminal disposition, or "" while in flight.
func (tt *TupleTrace) Disposition() string { return tt.disposition }

// NextSeq returns the next sequence number the schedule will select. It
// is a plain field read (inlinable), letting the engine's producer skip
// SourceOffer entirely for unselected packets.
func (t *Tracer) NextSeq() uint64 { return t.next }

// SourceOffer is called by the engine for every packet the feed offers,
// with its sequence number; it returns a new TupleTrace when the
// deterministic schedule selects this packet, nil otherwise.
func (t *Tracer) SourceOffer(seq uint64) *TupleTrace {
	if t == nil || seq != t.next {
		return nil
	}
	t.next += t.gap()
	t.ids++
	tt := &TupleTrace{tr: t, id: t.ids, seq: seq}
	t.mu.Lock()
	t.started++
	t.mu.Unlock()
	return tt
}

// SourceEnqueued records a successful ring push of a traced packet.
// enqIdx is the count of successful pushes before this one (the packet's
// FIFO position), occ the ring occupancy after the push.
func (t *Tracer) SourceEnqueued(tt *TupleTrace, enqIdx uint64, occ int) {
	tt.enqIdx = enqIdx
	tt.enqTime = time.Now()
	t.srcQ = append(t.srcQ, tt)
	t.record(tt, "ring_enqueue", "source", tt.enqTime, 0, map[string]any{
		"seq": tt.seq, "ring_occupancy": occ,
	})
}

// SourceDropped finishes a traced packet rejected by a full ring.
func (t *Tracer) SourceDropped(tt *TupleTrace, occ int) {
	t.record(tt, "ring_dropped", "source", time.Now(), 0, map[string]any{
		"seq": tt.seq, "ring_occupancy": occ,
	})
	tt.Finish("ring_dropped")
}

// SourceShed finishes a traced packet rejected ahead of the ring by the
// overload admission gate (shed-sample): the packet never reached the
// ring, so the shed disposition is terminal at the source stage.
func (t *Tracer) SourceShed(tt *TupleTrace, occ int) {
	t.record(tt, "shed", "source", time.Now(), 0, map[string]any{
		"seq": tt.seq, "ring_occupancy": occ,
	})
	tt.Finish("shed")
}

// RowTraces is the traces riding on one row of a batch, by the row's
// position in it. From names the node that emitted the row, for the
// transfer span; it is empty for a source packet.
type RowTraces struct {
	Row  int
	From string
	TTs  []*TupleTrace
}

// TakeSource removes and returns the traced packets whose ring positions
// fall in [base, base+n) — the batch the engine just popped — recording
// each one's ring_dequeue span (duration = time spent queued). Entries are
// returned in FIFO order, one trace each.
func (t *Tracer) TakeSource(base uint64, n int) []RowTraces {
	if t == nil || len(t.srcQ) == 0 {
		return nil
	}
	var out []RowTraces
	now := time.Now()
	for len(t.srcQ) > 0 && t.srcQ[0].enqIdx < base+uint64(n) {
		tt := t.srcQ[0]
		t.srcQ = t.srcQ[1:]
		if tt.enqIdx < base {
			// Should not happen (FIFO ring); finish defensively rather
			// than leak an unterminated trace.
			tt.Finish("stream_end")
			continue
		}
		t.record(tt, "ring_dequeue", "source", tt.enqTime, now.Sub(tt.enqTime), map[string]any{
			"wait_us": float64(now.Sub(tt.enqTime)) / 1e3,
		})
		out = append(out, RowTraces{Row: int(tt.enqIdx - base), TTs: []*TupleTrace{tt}})
	}
	return out
}

// SetCurrent makes rts, in ascending row order, the traced rows of the
// batch a step is about to walk.
func (t *Tracer) SetCurrent(rts []RowTraces) { t.cur = rts }

// NextRow returns the position of the next traced row the walk has not
// taken, -1 when there is none (or no tracer): the walk's one per-row test
// is a comparison with it.
func (t *Tracer) NextRow() int {
	if t == nil || len(t.cur) == 0 {
		return -1
	}
	return t.cur[0].Row
}

// TakeRow takes the traces of the next traced row, recording their
// transfer spans into node when the row came from another node, and
// returns them with the position of the traced row after it (NextRow).
func (t *Tracer) TakeRow(node string) ([]*TupleTrace, int) {
	rt := t.cur[0]
	t.cur = t.cur[1:]
	if rt.From != "" {
		for _, tt := range rt.TTs {
			tt.transferDequeued(rt.From, node)
		}
	}
	return rt.TTs, t.NextRow()
}

// Stage records node emitting, in window, the output row at position row
// of the run of rows it hands its sink next, and stages the traces tts
// riding on it for the sink to claim (TakeStaged).
func (t *Tracer) Stage(node string, window int64, row int, tts []*TupleTrace) {
	for _, tt := range tts {
		tt.Emit(node, window)
	}
	t.staged = append(t.staged, RowTraces{Row: row, TTs: tts})
}

// TakeStaged claims the entries staged for the run of output rows being
// handed over (none on a nil tracer). The slice is valid until the next
// Stage.
func (t *Tracer) TakeStaged() []RowTraces {
	if t == nil {
		return nil
	}
	rts := t.staged
	t.staged = t.staged[:0]
	return rts
}

// FinishCurrent ends a step: every trace of a current row the walk did not
// take, and of a staged output row no sink claimed — the step erred or
// panicked first, or never ran — finishes with the given disposition.
func (t *Tracer) FinishCurrent(disposition string) {
	for _, rts := range [2][]RowTraces{t.cur, t.staged} {
		for _, rt := range rts {
			for _, tt := range rt.TTs {
				tt.Finish(disposition)
			}
		}
	}
	t.cur, t.staged = nil, t.staged[:0]
}

// Span recording -----------------------------------------------------------

// Where records the admission-predicate outcome; a rejection is terminal.
func (tt *TupleTrace) Where(node string, pass bool) {
	tt.tr.record(tt, "where", node, time.Now(), 0, map[string]any{"pass": pass})
	if !pass {
		tt.Finish("where_rejected")
	}
}

// GroupLookup records the group-table probe for the tuple's group key.
func (tt *TupleTrace) GroupLookup(node, key string, created bool) {
	tt.tr.record(tt, "group_lookup", node, time.Now(), 0, map[string]any{
		"key": key, "created": created,
	})
}

// Sfun records one stateful-function invocation: the state family it
// shares and its outcome (result value or error).
func (tt *TupleTrace) Sfun(node, fn, state, outcome string) {
	tt.tr.record(tt, "sfun", node, time.Now(), 0, map[string]any{
		"fn": fn, "state": state, "outcome": outcome,
	})
}

// Evicted finishes the trace: cleaning phase k (1-based within the
// window) evicted the tuple's group. threshold is the live subset-sum
// threshold (NaN-free; 0 when the query has no observable threshold).
func (tt *TupleTrace) Evicted(node string, cleaning int, threshold float64, supergroup string) {
	tt.tr.record(tt, "evict", node, time.Now(), 0, map[string]any{
		"cleaning": cleaning, "threshold": threshold, "supergroup": supergroup,
	})
	tt.Finish(fmt.Sprintf("evicted(cleaning=%d)", cleaning))
}

// Having records the window-close HAVING outcome for the tuple's group; a
// rejection is terminal.
func (tt *TupleTrace) Having(node string, pass bool) {
	tt.tr.record(tt, "having", node, time.Now(), 0, map[string]any{"pass": pass})
	if !pass {
		tt.Finish("having_rejected")
	}
}

// Emit records the tuple's group being emitted at a window flush.
func (tt *TupleTrace) Emit(node string, window int64) {
	tt.tr.record(tt, "emit", node, time.Now(), 0, map[string]any{"window": window})
}

// TransferEnqueued notes the emitted row entering a high-level node's
// input queue (the span is recorded at dequeue time, covering the wait).
func (tt *TupleTrace) TransferEnqueued() { tt.enqTime = time.Now() }

// transferDequeued records the high-level transfer span: from the parent
// node's emit to the child node's walk reaching the row.
func (tt *TupleTrace) transferDequeued(from, to string) {
	now := time.Now()
	tt.tr.record(tt, "transfer", from, tt.enqTime, now.Sub(tt.enqTime), map[string]any{
		"from": from, "to": to, "wait_us": float64(now.Sub(tt.enqTime)) / 1e3,
	})
}

// Finish sets the terminal disposition. Only the first call takes effect:
// every trace carries exactly one disposition.
func (tt *TupleTrace) Finish(disposition string) {
	if tt.done {
		return
	}
	tt.done = true
	tt.disposition = disposition
	t := tt.tr
	now := time.Now()
	t.mu.Lock()
	t.finished++
	t.byDisp[disposition]++
	t.spans = append(t.spans, Event{
		Name: "disposition", Ph: "i", TS: t.us(now), PID: tracePID, TID: tt.id, S: "t",
		Args: map[string]any{"disposition": disposition, "seq": tt.seq},
	})
	t.mu.Unlock()
	if c := t.col.Load(); c.EventsEnabled() {
		c.Emit("trace_done", map[string]any{
			"trace": tt.id, "seq": tt.seq, "disposition": disposition,
		})
	}
}

// FinishOpen finishes every trace still in flight (including source-queue
// residents) with the given disposition. The engine calls it at the end
// of Run as a safety net; under normal operation every trace has already
// terminated.
func (t *Tracer) FinishOpen(disposition string) {
	if t == nil {
		return
	}
	for _, tt := range t.srcQ {
		tt.Finish(disposition)
	}
	t.srcQ = nil
}

// record buffers one span and mirrors it to the JSONL event log.
func (t *Tracer) record(tt *TupleTrace, stage, node string, start time.Time, dur time.Duration, args map[string]any) {
	if tt.done {
		return // no spans after the terminal disposition
	}
	t.mu.Lock()
	if len(t.spans) >= t.maxSpans {
		t.droppedSpans++
		t.mu.Unlock()
		return
	}
	ev := Event{Name: stage, Ph: "X", TS: t.us(start), Dur: float64(dur) / 1e3,
		PID: tracePID, TID: tt.id, Args: args}
	if args == nil {
		ev.Args = map[string]any{}
	}
	ev.Args["node"] = node
	t.spans = append(t.spans, ev)
	t.mu.Unlock()
	if c := t.col.Load(); c.EventsEnabled() {
		fields := map[string]any{
			"trace": tt.id, "seq": tt.seq, "stage": stage, "node": node,
			"ts_us": ev.TS, "dur_us": ev.Dur,
		}
		for k, v := range args {
			if k != "node" {
				fields[k] = v
			}
		}
		c.Emit("trace_span", fields)
	}
}

// us converts an absolute time to microseconds since the tracer's base.
func (t *Tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.base)) / 1e3
}

// Summary reports the tracer's totals.
type Summary struct {
	Started      int64            `json:"started"`
	Finished     int64            `json:"finished"`
	Spans        int              `json:"spans"`
	DroppedSpans int64            `json:"dropped_spans"`
	Dispositions map[string]int64 `json:"dispositions"`
}

// Summary returns the tracer's totals (safe from any goroutine).
func (t *Tracer) Summary() Summary {
	if t == nil {
		return Summary{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	disp := make(map[string]int64, len(t.byDisp))
	for k, v := range t.byDisp {
		disp[k] = v
	}
	return Summary{
		Started: t.started, Finished: t.finished,
		Spans: len(t.spans), DroppedSpans: t.droppedSpans,
		Dispositions: disp,
	}
}

// defaultTracer is the ambient tracer picked up by engine.New, mirroring
// telemetry.Default: how CLIs (cmd/experiments) trace engines they do not
// construct themselves.
var defaultTracer atomic.Pointer[Tracer]

// Default returns the process-wide ambient tracer, or nil (the default).
func Default() *Tracer { return defaultTracer.Load() }

// SetDefault installs t as the ambient tracer for engines created
// afterwards.
func SetDefault(t *Tracer) { defaultTracer.Store(t) }
