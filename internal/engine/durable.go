package engine

import (
	"fmt"
	"hash/fnv"
	"sort"

	"streamop/internal/checkpoint"
	"streamop/internal/overload"
)

// The snapshot payload and its restore: one format, written by
// encodeSnapshot for Run, RunParallel and a session alike, read by Restore.
//
// What must cross a restart is the same whoever ran the engine: the stream
// clock, every node's counters and operator snapshot (group and supergroup
// tables old and new, SFUN state, RNG state), the tenant gates and the
// source gate. What differs is who can rebuild the topology. Nodes added
// with AddLowLevel/AddHighLevel are code: the caller rebuilds them by hand
// before Restore, and the payload carries a fingerprint of them (names,
// plans, schemas, in order) so their state is never restored into
// different queries. Standing queries are data — after a crash nobody is
// around to re-Install them — so the payload carries the registry itself:
// every shared tap's Via text and seed, every query's GSQL text and
// InstallOptions (minus OnRow, which is code, not state), in install order.
// Restore replays the registry through the normal install path, which is
// why it wants the registry empty: a caller who Installs on an idle engine
// and then Runs must not re-install before restoring. Either part may be
// empty — gsq's snapshots have no registry, gsqd's no hand-built nodes —
// and an engine with both keeps both.
//
// Layout: magic, version; stream clock and install counters; hand-built
// fingerprint, then each hand-built node's name and node state; taps in
// name order (name, Via, seed, node state); queries in install order
// (install options, delivery counters, tenant-gate state, node state); the
// source gate's admission state.

// snapshotMagic opens every payload ("SESSOP01" as ASCII — the value
// session snapshots have always opened with, so an older session file is
// refused by its version instead of being misread).
const snapshotMagic uint64 = 0x53455353_4F503031

// snapshotVersion is the payload format version; bump on any layout change
// so no build misreads another's snapshot. v1 was the session-only payload;
// the one-shot payload of that time had no magic and fails the magic test.
const snapshotVersion uint32 = 2

// handBuilt returns the nodes no tap or standing query owns, in topology
// order (low-level first), and a fingerprint of them — level, name,
// compiled plan and output schema of each — that a snapshot carries to
// refuse restoration into different queries.
func (e *Engine) handBuilt() ([]*Node, uint64) {
	owned := make(map[*Node]bool, len(e.taps)+len(e.handles))
	for _, t := range e.taps {
		owned[t.node] = true
	}
	for _, h := range e.handles {
		owned[h.node] = true
	}
	fp := fnv.New64a()
	var nodes []*Node
	for _, n := range e.nodes() {
		if owned[n] {
			continue
		}
		for _, part := range []string{n.level(), n.name, n.plan.Describe(), n.schema.Name()} {
			fp.Write([]byte(part))
			fp.Write([]byte{0})
		}
		nodes = append(nodes, n)
	}
	return nodes, fp.Sum64()
}

// encodeSnapshot serializes the engine's resumable state. The goroutine
// that owns the stream (serial loop, session pump, parallel producer) only,
// at a boundary where every ring and edge is drained and every node settled.
func (e *Engine) encodeSnapshot() ([]byte, error) {
	enc := checkpoint.NewEncoder()
	enc.U64(snapshotMagic)
	enc.U32(snapshotVersion)
	enc.U64(e.firstTS.Load())
	enc.U64(e.lastTS.Load())
	enc.I64(e.packets.Load())
	enc.Bool(e.sawPacket.Load())
	enc.I64(e.installs.Load())
	enc.I64(e.uninstalls.Load())
	enc.U64(e.nextSeq)

	hand, fp := e.handBuilt()
	enc.U64(fp)
	enc.Len(len(hand))
	for _, n := range hand {
		enc.String(n.name)
		if err := encodeNodeState(enc, n); err != nil {
			return nil, err
		}
	}

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
		h.quota.Encode(enc)
		enc.I64(h.rowsOut.Load())
		enc.U64(h.Dropped())
		enc.U64(h.detached.Load())
		if g := h.gate; g != nil {
			enc.Bool(true)
			g.Encode(enc)
		} else {
			enc.Bool(false)
		}
		if err := encodeNodeState(enc, h.node); err != nil {
			return nil, err
		}
	}

	if g := e.srcGate; g != nil {
		enc.Bool(true)
		g.ctrl.Encode(enc)
	} else {
		enc.Bool(false)
	}
	return enc.Bytes(), nil
}

// encodeNodeState appends one node's counters and its step's snapshot. A
// panicked step's state is untrusted: its contained failure is
// persisted instead (the previous snapshot holds the last-good state).
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
	if err := n.step.Snapshot(sub); err != nil {
		return fmt.Errorf("engine: node %q: %w", n.name, err)
	}
	enc.Blob(sub.Bytes())
	return nil
}

// decodeNodeState restores what encodeNodeState wrote into a freshly
// built node, re-recording a persisted failure, and lists the node in info.
func (e *Engine) decodeNodeState(d *checkpoint.Decoder, n *Node, info *RestoreInfo) error {
	n.tuplesIn = d.I64()
	n.out = d.I64()
	if n.failed = d.Bool(); n.failed {
		n.failMsg, n.failStack = d.String(), d.String()
		if d.Err() == nil {
			e.recordFailure(NodeFailure{Node: n.name, Msg: n.failMsg, Stack: n.failStack}, false)
		}
	} else if blob := d.Blob(); d.Err() == nil {
		if err := n.step.Restore(checkpoint.NewDecoder(blob)); err != nil {
			return fmt.Errorf("engine: node %q: %w", n.name, err)
		}
	}
	info.Nodes = append(info.Nodes, RestoredNode{Name: n.name, TuplesOut: n.out, Failed: n.failed, FailMsg: n.failMsg})
	return d.Err()
}

// RestoredNode reports one node's state after Restore.
type RestoredNode struct {
	Name string
	// TuplesOut is the number of rows the node had already delivered to
	// its subscribers and applications when the snapshot was taken —
	// callers re-emitting output (e.g. a CSV writer) splice at this count.
	TuplesOut int64
	Failed    bool
	FailMsg   string
}

// RestoreInfo reports what Restore loaded.
type RestoreInfo struct {
	Path    string
	Seq     uint64
	Packets int64
	Windows int64 // most windows any healthy restored node had closed
	// Nodes lists every restored node: the hand-built ones in topology
	// order, then the taps, then the standing queries.
	Nodes   []RestoredNode
	Queries []string // re-installed standing queries, install order
	Taps    []string // recreated shared taps, name order
}

// Restore loads the newest valid snapshot from the configured checkpoint
// directory. Call it after SetCheckpoint on an idle engine whose
// standing-query registry is empty and whose hand-built nodes (AddLowLevel,
// AddHighLevel) are the ones the snapshot was taken with, rebuilt in the
// same order — none, for a snapshot that has none: it restores those
// nodes' state, recreates every shared tap and re-installs every standing
// query from the persisted registry with its operator, tenant-gate and
// counter state, and primes the next Run, RunParallel or Start to
// fast-forward the feed past the snapshot's packets and resume
// bit-identically. OnRow callbacks are code, not state — reattach behavior
// by subscribing to the restored handles. Returns checkpoint.ErrNoCheckpoint
// (possibly wrapped) when no valid snapshot exists — callers treat that as
// a fresh start; after any other error the engine is partly restored and
// must be discarded.
func (e *Engine) Restore() (*RestoreInfo, error) {
	ck := e.ckpt
	if ck == nil {
		return nil, fmt.Errorf("engine: call SetCheckpoint before Restore")
	}
	if e.runState.Load() != stateIdle {
		return nil, fmt.Errorf("engine: Restore requires an idle engine")
	}
	e.topoMu.Lock()
	defer e.topoMu.Unlock()
	if len(e.handles) != 0 || len(e.taps) != 0 {
		return nil, fmt.Errorf("engine: Restore requires an empty standing-query registry (it replays the snapshot's installs; do not Install first)")
	}
	snap, err := checkpoint.Latest(ck.cfg.Dir)
	if err != nil {
		return nil, err
	}
	d := checkpoint.NewDecoder(snap.Payload)
	if magic := d.U64(); d.Err() == nil && magic != snapshotMagic {
		return nil, fmt.Errorf("engine: snapshot %s does not open with the snapshot magic: not this engine's, or a one-shot snapshot older than format v%d", snap.Path, snapshotVersion)
	}
	if v := d.U32(); d.Err() == nil && v != snapshotVersion {
		return nil, fmt.Errorf("engine: snapshot %s has format v%d, this build reads v%d", snap.Path, v, snapshotVersion)
	}
	firstTS, lastTS := d.U64(), d.U64()
	packets := d.I64()
	sawPacket := d.Bool()
	installs, uninstalls := d.I64(), d.I64()
	nextSeq := d.U64()

	info := &RestoreInfo{Path: snap.Path, Seq: snap.Seq, Packets: packets}
	hand, fp := e.handBuilt()
	if want, n := d.U64(), d.Len(); d.Err() == nil && (want != fp || n != len(hand)) {
		return nil, fmt.Errorf("engine: snapshot %s was taken from a different hand-built topology (%d nodes, this engine has %d)", snap.Path, n, len(hand))
	}
	for _, n := range hand {
		if name := d.String(); d.Err() == nil && name != n.name {
			return nil, fmt.Errorf("engine: snapshot node %q does not match topology node %q", name, n.name)
		}
		if err := e.decodeNodeState(d, n, info); err != nil {
			return nil, err
		}
	}

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
		if err := e.decodeNodeState(d, t.node, info); err != nil {
			return nil, err
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
		var quota overload.Quota
		quota.Decode(d)
		rowsOut := d.I64()
		dropped := d.U64()
		detached := d.U64()
		hasGate := d.Bool()
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
			h.gate.Decode(d)
		}
		if err := e.decodeNodeState(d, h.node, info); err != nil {
			return nil, err
		}
		info.Queries = append(info.Queries, name)
	}

	// The source gate's state is the payload's tail. It waits, encoded,
	// for the next run's gate; decoding it here checks that it is whole.
	var srcGate []byte
	if d.Bool() {
		srcGate = snap.Payload[len(snap.Payload)-d.Remaining():]
		overload.NewController(overload.Config{}).Decode(d)
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
	info.Windows = e.maxWindows()
	ck.seq = snap.Seq
	ck.aSeq.Store(snap.Seq)
	ck.lastWindows = info.Windows
	ck.resumeSkip = packets
	ck.pendingGate = srcGate
	e.syncSessionMetrics()
	if m := ck.metrics(e.tel); m != nil {
		m.restores.Add(1)
		m.lastSeq.Set(float64(snap.Seq))
	}
	if e.tel.EventsEnabled() {
		e.tel.Emit("restore", map[string]any{
			"seq": snap.Seq, "packets": packets, "windows": info.Windows, "path": snap.Path,
			"nodes": len(info.Nodes), "queries": len(info.Queries), "taps": len(info.Taps),
		})
	}
	return info, nil
}
