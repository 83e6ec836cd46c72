package engine

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"streamop/internal/checkpoint"
	"streamop/internal/telemetry"
	"streamop/internal/trace"
)

// Crash-safe checkpoint/restore: the schedule, the write and the resume.
//
// A checkpoint is one framed file (see internal/checkpoint) holding the
// engine's complete resumable state at a tuple boundary: the source
// position (packets taken from the feed, timestamp bounds), every node's
// operator snapshot (group tables, supergroup tables old and new, SFUN
// state blobs, RNG state), the standing-query registry and the source
// gate's admission-controller state. There is one payload, whoever ran the
// engine, and one way back (encodeSnapshot and Restore, durable.go).
//
// Exactness. The serial loop — Run's and a session's — snapshots only when
// the ring is empty and every node has settled, so "packets taken from the
// feed" fully determines what every operator has seen; the restored run
// fast-forwards the feed by that count and continues bit-for-bit (fault
// injection and admission draws replay identically because their RNG state
// rides along — the wrapped feed is re-wrapped with the same seed, and
// skipping the prefix replays the same draws). RunParallel reaches the same
// boundary by quiescing: the producer stops pushing and waits until each
// low-level worker's consumed count matches its ring's push count and then,
// parents first, until each high-level worker has taken every batch passed
// over its edge, which also gives the producer a happens-before edge over
// the workers' operator state.
//
// Restrictions. Two, both RunParallel's: a partial-aggregation node there
// is striped across shard replicas and routed by a window the producer
// holds, neither of which is in the payload yet (under Run and in a
// session its table snapshots like any node's state); and paced
// RunParallel sheds packets nondeterministically, so there is no exact
// resume to preserve.

// ckptProbeInterval is how many packets the parallel producer routes
// between checkpoint-due probes (each probe quiesces the workers, so it
// must be far rarer than the per-packet work it interrupts).
const ckptProbeInterval = 4096

// CheckpointConfig configures periodic snapshots for a run.
type CheckpointConfig struct {
	// Dir is the snapshot directory (created if missing).
	Dir string
	// EveryWindows triggers a snapshot whenever some node's operator has
	// closed at least this many windows since the previous snapshot.
	// <= 0 disables the periodic schedule; a cancelled run still writes
	// its final snapshot.
	EveryWindows int64
	// Keep is the number of snapshot files retained (older ones are
	// pruned after each write). < 1 defaults to 2, so one corrupt newest
	// file still leaves a valid predecessor.
	Keep int
}

// ckptState is the engine's live checkpoint runtime.
type ckptState struct {
	cfg         CheckpointConfig
	seq         uint64
	lastWindows int64
	resumeSkip  int64
	// pendingGate is a restored source-gate state, encoded, waiting for
	// the next run's gate.
	pendingGate []byte

	// regDirty forces a snapshot at a session's next pump boundary after
	// the standing-query registry changed.
	regDirty bool

	// Atomic mirrors for /debug/state (written by the run loop or the
	// parallel producer, read by the HTTP goroutine).
	aSeq     atomic.Uint64
	aWritten atomic.Int64

	m *ckptMetrics
}

type ckptMetrics struct {
	written, lastSeq, lastBytes, lastSeconds, failures, restores *telemetry.Gauge
}

// SetCheckpoint enables checkpointing for subsequent runs. Call before
// Run/RunParallel/Start (and before Restore when resuming); it errors
// once a run or session is active.
func (e *Engine) SetCheckpoint(cfg CheckpointConfig) error {
	if err := e.setterGuard("SetCheckpoint"); err != nil {
		return err
	}
	if cfg.Dir == "" {
		return fmt.Errorf("engine: checkpoint directory must not be empty")
	}
	if cfg.Keep < 1 {
		cfg.Keep = 2
	}
	e.ckpt = &ckptState{cfg: cfg}
	return nil
}

// metrics lazily registers the checkpoint gauges (the collector may be
// attached after SetCheckpoint).
func (ck *ckptState) metrics(tel *telemetry.Collector) *ckptMetrics {
	if ck.m == nil && tel.Enabled() {
		r := tel.Registry()
		ck.m = &ckptMetrics{
			written:     r.Gauge("streamop_checkpoint_written", "snapshots written this run"),
			lastSeq:     r.Gauge("streamop_checkpoint_last_seq", "sequence number of the newest snapshot"),
			lastBytes:   r.Gauge("streamop_checkpoint_last_bytes", "framed size of the newest snapshot"),
			lastSeconds: r.Gauge("streamop_checkpoint_last_duration_seconds", "wall-clock cost of the newest snapshot write"),
			failures:    r.Gauge("streamop_checkpoint_failures", "snapshot writes that failed"),
			restores:    r.Gauge("streamop_checkpoint_restores", "successful restores this process"),
		}
	}
	return ck.m
}

// checkpointRunnable rejects topologies and modes the checkpoint
// machinery cannot snapshot exactly; a run without checkpointing is never
// rejected.
func (e *Engine) checkpointRunnable(parallel bool, speedup float64) error {
	if e.ckpt == nil {
		return nil
	}
	if !parallel {
		return nil
	}
	if speedup > 0 {
		return fmt.Errorf("engine: checkpointing under RunParallel requires unpaced mode (speedup <= 0)")
	}
	for _, n := range e.low {
		if n.partial != nil {
			return fmt.Errorf("engine: checkpointing under RunParallel does not support partial-aggregation nodes (node %q: sharded state is not in the snapshot)", n.name)
		}
	}
	return nil
}

// maxWindows returns the most windows any healthy node's step has closed —
// the quantity the EveryWindows schedule watches.
func (e *Engine) maxWindows() int64 {
	var most int64
	for _, n := range e.nodes() {
		if n.failed {
			continue
		}
		if w := n.step.Stats().Windows; w > most {
			most = w
		}
	}
	return most
}

// maybeCheckpoint writes a snapshot when the periodic schedule is due.
// Serial run loop / parallel producer only, at a quiesced tuple boundary.
func (e *Engine) maybeCheckpoint() error {
	ck := e.ckpt
	if ck == nil || ck.cfg.EveryWindows <= 0 {
		return nil
	}
	if e.maxWindows()-ck.lastWindows < ck.cfg.EveryWindows {
		return nil
	}
	return e.writeCheckpoint()
}

// writeCheckpoint snapshots unconditionally. Same caller contract as
// maybeCheckpoint.
func (e *Engine) writeCheckpoint() error {
	ck := e.ckpt
	start := time.Now()
	payload, err := e.encodeSnapshot()
	if err != nil {
		ck.noteFailure(e.tel)
		return err
	}
	seq := ck.seq + 1
	if _, err := checkpoint.WriteFile(ck.cfg.Dir, seq, payload); err != nil {
		ck.noteFailure(e.tel)
		return err
	}
	ck.seq = seq
	ck.lastWindows = e.maxWindows()
	ck.regDirty = false
	ck.aSeq.Store(seq)
	written := ck.aWritten.Add(1)
	// Pruning is best-effort: a failed unlink never outranks a durable
	// snapshot.
	_ = checkpoint.Prune(ck.cfg.Dir, ck.cfg.Keep)
	dur := time.Since(start)
	if m := ck.metrics(e.tel); m != nil {
		m.written.Set(float64(written))
		m.lastSeq.Set(float64(seq))
		m.lastBytes.Set(float64(len(payload)))
		m.lastSeconds.Set(dur.Seconds())
	}
	if e.tel.EventsEnabled() {
		e.tel.Emit("checkpoint", map[string]any{
			"seq": seq, "bytes": len(payload), "packets": e.packets.Load(),
			"windows": ck.lastWindows, "duration_ms": dur.Milliseconds(),
		})
	}
	return nil
}

func (ck *ckptState) noteFailure(tel *telemetry.Collector) {
	if m := ck.metrics(tel); m != nil {
		m.failures.Add(1)
	}
}

// applyRestoredGate moves a restored admission-controller state into the
// freshly created source gate. Run/RunParallel setup only.
func (e *Engine) applyRestoredGate() {
	ck := e.ckpt
	if ck == nil || ck.pendingGate == nil {
		return
	}
	if g := e.srcGate; g != nil {
		g.ctrl.Decode(checkpoint.NewDecoder(ck.pendingGate))
	}
	ck.pendingGate = nil
}

// resumeFastForward skips the feed past the packets the snapshot already
// accounts for. The feed must already be fault-wrapped: the wrapper's
// deterministic RNG then replays the same drops/dups over the prefix,
// leaving the remainder identical to the uninterrupted run's.
func (e *Engine) resumeFastForward(feed trace.Feed) {
	ck := e.ckpt
	if ck == nil || ck.resumeSkip <= 0 {
		return
	}
	for i := int64(0); i < ck.resumeSkip; i++ {
		if _, ok := feed.Next(); !ok {
			break
		}
	}
	ck.resumeSkip = 0
}

// quiesce waits until every RunParallel worker has consumed everything
// handed to it: each low-level worker what was pushed to its ring, then
// each high-level worker, parents first, every batch passed over its edge —
// a worker hands its rows on before it counts a step, so once a parent has
// caught up its readers' counts are final. Parallel producer only, after
// flushing its batch buffers; the counters' release/acquire ordering makes
// the workers' operator state safe to read afterwards.
func (e *Engine) quiesce(workers []lowWorker) {
	for _, w := range workers {
		for w.node.consumed.Load() != w.ring.Pushed() {
			runtime.Gosched()
		}
	}
	for _, h := range e.high {
		for h.in.taken.Load() != h.in.passed.Load() {
			runtime.Gosched()
		}
	}
}
