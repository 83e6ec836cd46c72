package engine

import (
	"fmt"
	"sort"

	"streamop/internal/checkpoint"
	"streamop/internal/overload"
)

// Durable sessions: the session-mode checkpoint payload and its restore.
//
// The one-shot payload (checkpoint.go) assumes a fixed topology: it opens
// with a fingerprint and requires the restoring engine to have rebuilt
// the identical node tree by hand. A session's topology is the thing that
// must survive the crash — nobody is around to re-Install the standing
// queries — so the session payload carries the registry itself: every
// shared tap's Via text and seed, every query's GSQL text and
// InstallOptions (minus OnRow, which is code, not state), in install
// order, each followed by its node's operator snapshot from the PR 5
// codec stack, plus the per-query tenant-gate state and the source
// gate's admission state. RestoreSession replays that registry through
// the normal install path into an empty engine, restores each node's
// state, and primes the same fast-forward resume the one-shot path uses:
// the next StartWith skips the snapshot's packets on the (fault-wrapped,
// deterministic) feed and continues bit-identically.
//
// The two payload kinds cannot cross-restore: the session payload opens
// with sessionMagic, which a one-shot RestoreLatest reads as a topology
// fingerprint and rejects, and RestoreSession rejects anything not
// opening with the magic.

// sessionMagic opens every session-mode payload ("SESSOP01" as ASCII).
const sessionMagic uint64 = 0x53455353_4F503031

// sessionVersion is the session payload format version; bump on any
// layout change so an old daemon never misreads a new snapshot.
const sessionVersion uint32 = 1

// encodeSessionCheckpoint serializes the standing-query registry and all
// resumable state. Pump goroutine, at a drained-ring boundary.
func (e *Engine) encodeSessionCheckpoint() ([]byte, error) {
	enc := checkpoint.NewEncoder()
	enc.U64(sessionMagic)
	enc.U32(sessionVersion)
	enc.U64(e.firstTS.Load())
	enc.U64(e.lastTS.Load())
	enc.I64(e.packets.Load())
	enc.Bool(e.sawPacket.Load())
	enc.I64(e.installs.Load())
	enc.I64(e.uninstalls.Load())
	enc.U64(e.nextSeq)

	taps := make([]*tap, 0, len(e.taps))
	for _, t := range e.taps {
		taps = append(taps, t)
	}
	sort.Slice(taps, func(i, j int) bool { return taps[i].name < taps[j].name })
	enc.Len(len(taps))
	for _, t := range taps {
		enc.String(t.name)
		enc.String(t.viaSrc)
		enc.U64(t.seed)
		if err := encodeNodeState(enc, t.node); err != nil {
			return nil, err
		}
	}

	handles := make([]*QueryHandle, 0, len(e.handles))
	for _, h := range e.handles {
		handles = append(handles, h)
	}
	sort.Slice(handles, func(i, j int) bool { return handles[i].seq < handles[j].seq })
	enc.Len(len(handles))
	for _, h := range handles {
		enc.String(h.name)
		enc.String(h.src)
		enc.String(h.viaSrc)
		enc.U64(h.seed)
		enc.U64(h.seq)
		enc.I64(int64(h.buf))
		enc.Bool(h.block)
		q := h.quota
		enc.F64(q.Rows)
		enc.F64(q.Bytes)
		enc.F64(q.BurstSec)
		enc.U64(q.WarnLag)
		enc.U64(q.DetachAfter)
		enc.I64(h.rowsOut.Load())
		enc.U64(h.Dropped())
		enc.U64(h.detached.Load())
		if g := h.gate; g != nil {
			enc.Bool(true)
			st := g.ExportState()
			enc.F64(st.RowTokens)
			enc.F64(st.ByteTokens)
			enc.U64(st.LastRefill)
			enc.Bool(st.Started)
			enc.U64(st.Offered)
			enc.U64(st.Admitted)
			enc.U64(st.Shed)
			enc.U64(st.AdmittedBytes)
			enc.U64(st.ShedBytes)
			enc.Bool(st.Throttled)
		} else {
			enc.Bool(false)
		}
		if err := encodeNodeState(enc, h.node); err != nil {
			return nil, err
		}
	}

	if g := e.srcGate; g != nil {
		enc.Bool(true)
		encodeGateState(enc, g.ctrl.ExportState())
	} else {
		enc.Bool(false)
	}
	return enc.Bytes(), nil
}

// encodeNodeState appends one node's counters and operator snapshot, the
// node-state codec of both payload kinds. A panicked operator's state is
// untrusted: its contained failure is persisted instead (the previous
// snapshot holds the last-good state).
func encodeNodeState(enc *checkpoint.Encoder, n *Node) error {
	enc.I64(n.tuplesIn)
	enc.I64(n.out)
	enc.Bool(n.failed)
	if n.failed {
		enc.String(n.failMsg)
		enc.String(n.failStack)
		return nil
	}
	sub := checkpoint.NewEncoder()
	if err := n.op.Snapshot(sub); err != nil {
		return fmt.Errorf("engine: node %q: %w", n.name, err)
	}
	enc.Blob(sub.Bytes())
	return nil
}

// decodeNodeState restores what encodeNodeState wrote into a freshly
// built node, re-recording a persisted failure.
func (e *Engine) decodeNodeState(d *checkpoint.Decoder, n *Node) error {
	n.tuplesIn = d.I64()
	n.out = d.I64()
	failed := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if failed {
		n.failed = true
		n.failMsg = d.String()
		n.failStack = d.String()
		if d.Err() != nil {
			return d.Err()
		}
		e.recordFailure(NodeFailure{Node: n.name, Msg: n.failMsg, Stack: n.failStack}, false)
		return nil
	}
	blob := d.Blob()
	if d.Err() != nil {
		return d.Err()
	}
	if err := n.op.Restore(checkpoint.NewDecoder(blob)); err != nil {
		return fmt.Errorf("engine: node %q: %w", n.name, err)
	}
	return nil
}

// SessionRestoreInfo reports what RestoreSession loaded.
type SessionRestoreInfo struct {
	Path    string
	Seq     uint64
	Packets int64
	Queries []string // restored standing queries, install order
	Taps    []string // restored shared taps, name order
	Failed  []string // nodes carried forward in the contained-failure state
}

// RestoreSession loads the newest valid session snapshot from the
// configured checkpoint directory into this (empty, idle) engine: it
// recreates every shared tap and re-installs every standing query from
// the persisted registry, restores all operator, tenant-gate and
// admission state, and primes the next StartWith to fast-forward the feed
// past the snapshot's packets and resume bit-identically. OnRow callbacks
// are code, not state — reattach behavior by installing fresh queries or
// subscribing to the restored handles. Returns checkpoint.ErrNoCheckpoint
// (possibly wrapped) when no valid snapshot exists — callers treat that
// as a fresh start.
func (e *Engine) RestoreSession() (*SessionRestoreInfo, error) {
	ck := e.ckpt
	if ck == nil {
		return nil, fmt.Errorf("engine: call SetCheckpoint before RestoreSession")
	}
	if e.runState.Load() != stateIdle {
		return nil, fmt.Errorf("engine: RestoreSession requires an idle engine")
	}
	e.topoMu.Lock()
	defer e.topoMu.Unlock()
	if len(e.handles) != 0 || len(e.taps) != 0 || len(e.low)+len(e.lowPartial)+len(e.high) != 0 {
		return nil, fmt.Errorf("engine: RestoreSession requires an empty engine (found installed queries or nodes)")
	}
	snap, err := checkpoint.Latest(ck.cfg.Dir)
	if err != nil {
		return nil, err
	}
	d := checkpoint.NewDecoder(snap.Payload)
	if magic := d.U64(); d.Err() == nil && magic != sessionMagic {
		return nil, fmt.Errorf("engine: snapshot %s is not a session snapshot (one-shot run state restores via RestoreLatest)", snap.Path)
	}
	if v := d.U32(); d.Err() == nil && v != sessionVersion {
		return nil, fmt.Errorf("engine: snapshot %s has session format v%d, this build reads v%d", snap.Path, v, sessionVersion)
	}
	firstTS, lastTS := d.U64(), d.U64()
	packets := d.I64()
	sawPacket := d.Bool()
	installs, uninstalls := d.I64(), d.I64()
	nextSeq := d.U64()
	if d.Err() != nil {
		return nil, d.Err()
	}

	info := &SessionRestoreInfo{Path: snap.Path, Seq: snap.Seq, Packets: packets}
	nTaps := d.Len()
	for i := 0; i < nTaps; i++ {
		name := d.String()
		via := d.String()
		seed := d.U64()
		if d.Err() != nil {
			return nil, d.Err()
		}
		t, err := e.addTap(name, via, seed, 0)
		if err != nil {
			return nil, fmt.Errorf("engine: restored tap %q: %w", name, err)
		}
		if err := e.decodeNodeState(d, t.node); err != nil {
			return nil, err
		}
		if t.node.failed {
			info.Failed = append(info.Failed, name)
		}
		info.Taps = append(info.Taps, name)
	}

	nQueries := d.Len()
	for i := 0; i < nQueries; i++ {
		name := d.String()
		src := d.String()
		via := d.String()
		seed := d.U64()
		seq := d.U64()
		buf := int(d.I64())
		block := d.Bool()
		quota := overload.Quota{
			Rows:        d.F64(),
			Bytes:       d.F64(),
			BurstSec:    d.F64(),
			WarnLag:     d.U64(),
			DetachAfter: d.U64(),
		}
		rowsOut := d.I64()
		dropped := d.U64()
		detached := d.U64()
		hasGate := d.Bool()
		var gateState overload.TenantPersistentState
		if hasGate {
			gateState = overload.TenantPersistentState{
				RowTokens:     d.F64(),
				ByteTokens:    d.F64(),
				LastRefill:    d.U64(),
				Started:       d.Bool(),
				Offered:       d.U64(),
				Admitted:      d.U64(),
				Shed:          d.U64(),
				AdmittedBytes: d.U64(),
				ShedBytes:     d.U64(),
				Throttled:     d.Bool(),
			}
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		h, err := e.install(name, src, InstallOptions{Via: via, Seed: seed, Buffer: buf, Block: block, Quota: quota})
		if err != nil {
			return nil, fmt.Errorf("engine: restoring query %q: %w", name, err)
		}
		h.seq = seq
		h.rowsOut.Store(rowsOut)
		h.dropped.Store(dropped)
		h.detached.Store(detached)
		if hasGate {
			if h.gate == nil {
				return nil, fmt.Errorf("engine: restoring query %q: snapshot carries gate state but the quota has no budget", name)
			}
			h.gate.ImportState(gateState)
		}
		if err := e.decodeNodeState(d, h.node); err != nil {
			return nil, err
		}
		if h.node.failed {
			info.Failed = append(info.Failed, name)
		}
		info.Queries = append(info.Queries, name)
	}

	if hasGate := d.Bool(); hasGate {
		gs := decodeGateState(d)
		if d.Err() != nil {
			return nil, d.Err()
		}
		ck.pendingGate = &gs
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("engine: snapshot %s has %d bytes of trailing garbage", snap.Path, d.Remaining())
	}

	e.firstTS.Store(firstTS)
	e.lastTS.Store(lastTS)
	e.packets.Store(packets)
	e.sawPacket.Store(sawPacket)
	e.installs.Store(installs)
	e.uninstalls.Store(uninstalls)
	e.nextSeq = nextSeq
	ck.seq = snap.Seq
	ck.aSeq.Store(snap.Seq)
	ck.lastWindows = e.maxWindows()
	ck.resumeSkip = packets
	ck.session = true
	// The registry now matches the snapshot on disk; the next write comes
	// from the periodic schedule or the next install/uninstall.
	ck.regDirty = false
	e.syncSessionMetrics()
	if m := ck.metrics(e.tel); m != nil {
		m.restores.Add(1)
		m.lastSeq.Set(float64(snap.Seq))
	}
	if e.tel.EventsEnabled() {
		e.tel.Emit("session_restore", map[string]any{
			"seq": snap.Seq, "packets": packets, "queries": len(info.Queries),
			"taps": len(info.Taps), "path": snap.Path,
		})
	}
	return info, nil
}
