package engine

import (
	"sync/atomic"

	"streamop/internal/profile"
)

// Profiling instrumentation (see internal/profile). The engine clocks what
// the operator cannot see, once per popped batch: ring PopBatch (charged
// to the "source" pseudo-node, matching the telemetry/overload naming) and
// each low-level node's packet→column conversion. Under RunParallel every
// shard replica of a partial-aggregation node is a node with a NodeProfile
// of its own.
// A node's profile is attached where the node is registered and released
// where it is spliced out, so the report follows the topology.
//
// The profiler handle itself lives in an atomic pointer because the
// /debug/profile source runs on the HTTP goroutine; the per-node handles
// used on the hot path are plain fields set before the node first runs.

// SetProfiler attaches a profiler to the engine, to every node registered
// so far and to every node registered afterwards (nil detaches). It errors
// once a run or session is active.
func (e *Engine) SetProfiler(p *profile.Profiler) error {
	if err := e.setterGuard("SetProfiler"); err != nil {
		return err
	}
	e.prof.Store(p)
	e.srcProf = p.Node("source")
	for _, n := range e.Nodes() {
		n.attachProfile(p)
	}
	return nil
}

// Profiler returns the attached profiler, nil when profiling is off. Safe
// from any goroutine.
func (e *Engine) Profiler() *profile.Profiler { return e.prof.Load() }

// attachProfile registers the node with p; a nil p detaches.
func (n *Node) attachProfile(p *profile.Profiler) {
	n.prof = p.Node(n.name)
	n.step.SetProfile(n.prof)
}

// profFields are embedded in Engine.
type profFields struct {
	prof    atomic.Pointer[profile.Profiler]
	srcProf *profile.NodeProfile // "source" pseudo-node: ring PopBatch cost
}
