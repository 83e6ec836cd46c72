package engine

import (
	"context"
	"time"

	"streamop/internal/trace"
)

// pump is the engine's one packet source, the tap of the paper's Figure 1.
// Run, a session and RunParallel's producer all take their packets from
// fill, a batch at a time, and nothing else reads the feed during a run, so
// "what is the next input, and is the stream over" is answered in one
// place: the fault-wrapped feed, fast-forwarded past a restored snapshot;
// the context; a session's Drain and queued commands; the pacer; and the
// stream clock. Unpaced, the context, Drain and the command queue are
// polled and the clock published once per batch; paced, every packet is
// polled and paced on its own. Where a packet goes next is the caller's
// business.
type pump struct {
	e    *Engine
	feed trace.Feed
	// ctxDone is nil for context.Background(), which keeps the cancellation
	// poll off the packet loop entirely in the common case.
	ctxDone   <-chan struct{}
	cancelled bool
	s         *session // nil outside a session
	// owed is set by a boundary that applied commands: the pump moves a
	// batch before a queued command holds it again, so commands arriving
	// back to back cannot starve the feed.
	owed bool

	// Pacer: a packet is released no earlier than (its time - the first
	// packet's time) / speedup after the first one; <= 0 is unpaced.
	speedup   float64
	sawBase   bool
	baseTS    uint64
	startWall time.Time
}

// pumped is what fill reports: the state the pump is in after the batch.
type pumped uint8

const (
	pumpPacket pumped = iota
	pumpHold          // a session command is waiting: go to the boundary
	pumpEnd           // feed drained, context cancelled, or Drain
)

// newPump starts the packet source of one run; s is the session the run
// serves, nil for Run and RunParallel.
func (e *Engine) newPump(ctx context.Context, feed trace.Feed, s *session, speedup float64) *pump {
	if ck := e.ckpt; ck != nil {
		// A session starts with a base snapshot at its first boundary, so
		// even a kill right after Start recovers the pre-Start installs.
		ck.regDirty = s != nil
	}
	feed = e.faults.Wrap(feed)
	e.resumeFastForward(feed)
	return &pump{e: e, feed: feed, ctxDone: ctx.Done(), s: s, speedup: speedup}
}

// poll reports whether the source may take another packet.
func (pm *pump) poll() pumped {
	if pm.ctxDone != nil {
		select {
		case <-pm.ctxDone:
			pm.cancelled = true
			return pumpEnd
		default:
		}
	}
	if s := pm.s; s != nil {
		select {
		case <-s.drainCh:
			return pumpEnd
		default:
		}
		// Polled per batch, per paced packet and per pacing slice, which
		// bounds install latency while the feed is paced or the ring is
		// filling; never while a batch is owed.
		if len(s.cmds) > 0 && !pm.owed {
			return pumpHold
		}
	}
	return pumpPacket
}

// fill stores the stream's next packets in dst, up to len(dst) of them,
// once they are due, and returns how many it stored; the caller offers
// dst[:n] whatever st says. Paced, the batch ends after a packet the pacer
// waited for (waited): the pump is at the live edge, so what is buffered
// should drain now. The stream clock is published for the whole batch
// before the caller sees it, so every row a packet causes is delivered
// under a lastTS that covers it (QueryHandle.deliver reads it as the
// quota's stream time).
func (pm *pump) fill(dst []trace.Packet) (n int, waited bool, st pumped) {
	paced := pm.speedup > 0
	for n < len(dst) && !waited {
		if n == 0 || paced {
			if st = pm.poll(); st != pumpPacket {
				break
			}
		}
		var ok bool
		if dst[n], ok = pm.feed.Next(); !ok {
			st = pumpEnd
			break
		}
		if paced {
			waited = pm.pace(dst[n].Time)
		}
		n++
	}
	if n > 0 {
		pm.owed = false
		e := pm.e
		if !e.sawPacket.Load() {
			e.firstTS.Store(dst[0].Time)
			e.sawPacket.Store(true)
		}
		e.lastTS.Store(dst[n-1].Time)
		e.packets.Add(int64(n))
	}
	return n, waited, st
}

// pace holds the pump until packet timestamp ts is due, returning true
// when it had to wait: the pump is at the paced live edge, so what is
// buffered should drain now. It sleeps in slices that bound what a
// cancellation, a Drain or an Install waits for, and gives up the rest of
// the wait when one arrives (slightly early admission beats a stalled
// Install).
func (pm *pump) pace(ts uint64) bool {
	if !pm.sawBase {
		pm.sawBase = true
		pm.baseTS = ts
		pm.startWall = time.Now()
		return true
	}
	target := time.Duration(float64(ts-pm.baseTS) / pm.speedup)
	waited := false
	for {
		wait := target - time.Since(pm.startWall)
		if wait <= 0 || pm.poll() != pumpPacket {
			return waited
		}
		waited = true
		time.Sleep(min(wait, 2*time.Millisecond))
	}
}

// boundary is the source's turn while the ring is drained and every node
// settled, the one place a topology may change: a session's queued
// commands apply, and a registry they changed (or a session just started)
// is snapshotted at once, so the durable registry never trails the live
// topology by more than one boundary. Once commands have applied, the
// next fill owes the feed a batch (owed).
func (pm *pump) boundary() error {
	if pm.s == nil {
		return nil
	}
	if pm.s.applyCommands() > 0 {
		pm.owed = true
	}
	if ck := pm.e.ckpt; ck != nil && ck.regDirty {
		if err := pm.e.writeCheckpoint(); err != nil {
			return err
		}
	}
	if pm.owed && pm.e.afterBoundary != nil {
		pm.e.afterBoundary()
	}
	return nil
}

// resumable reports whether the run ends with stream left to resume: it
// was cancelled, or it is a session, whose feed a restarted daemon takes
// up again.
func (pm *pump) resumable() bool { return pm.cancelled || pm.s != nil }
