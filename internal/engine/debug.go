package engine

import (
	"sort"

	"streamop/internal/operator"
	"streamop/internal/telemetry"
)

// /debug data sources. The engine registers two sources on its collector
// — "plan" (static per-node plan descriptions, reusing gsql's -explain
// machinery) and "state" (live occupancy) — which telemetry's Handler
// serves at /debug/plan and /debug/state.
//
// The source functions run on the HTTP goroutine while Run executes, so
// they read only data that is immutable after construction (names, plans,
// schemas) or published through atomics: the source ring's counters, the
// engine's ring peak, each operator's boundary-consistent DebugState
// snapshot, and the tracer's mutex-guarded summary. Node busy times and
// tuple counters are deliberately absent — they are plain fields owned by
// the run loop (scrape /metrics for their synced gauges). The topology
// itself is no longer immutable — sessions install and uninstall queries
// mid-run — so every source walks it under topoMu (the pump takes the
// write lock only while splicing).

// NodePlan is one node's entry in the /debug/plan payload.
type NodePlan struct {
	Name        string   `json:"name"`
	Level       string   `json:"level"` // low | low_partial | high
	Output      string   `json:"output_schema"`
	Subscribers []string `json:"subscribers,omitempty"`
	Plan        string   `json:"plan"` // gsql -explain rendering
}

// RingDebug is the source ring's live counters in /debug/state.
type RingDebug struct {
	Cap    int    `json:"cap"`
	Len    int    `json:"len"`
	Pushed uint64 `json:"pushed"`
	Popped uint64 `json:"popped"`
	Drops  uint64 `json:"drops"`
	Peak   int    `json:"peak"`
}

// NodeDebug is one node's entry in /debug/state.
type NodeDebug struct {
	Name  string               `json:"name"`
	State *operator.DebugState `json:"state"` // nil for partial-agg nodes
	// Shards is present for a partial-aggregation node after RunParallel
	// published its sharded runtime: one entry per worker replica.
	Shards []ShardDebug `json:"shards,omitempty"`
}

// ShardDebug is one shard replica's live counters in /debug/state. The
// values come from atomics the worker mirrors at batch boundaries, so a
// scrape mid-run sees a slightly stale but tear-free snapshot.
type ShardDebug struct {
	ID        int    `json:"id"`
	RingCap   int    `json:"ring_cap"`
	RingLen   int    `json:"ring_len"`
	RingDrops uint64 `json:"ring_drops"`
	Folded    uint64 `json:"folded"`
	TuplesIn  int64  `json:"tuples_in"`
	TuplesOut int64  `json:"tuples_out"`
	Evictions int64  `json:"evictions"`
	Residents int64  `json:"residents"`
	BusyNS    int64  `json:"busy_ns"`
}

// registerDebug installs the engine's /debug data sources on c.
func (e *Engine) registerDebug(c *telemetry.Collector) {
	c.SetDebugSource("plan", "engine", func() any { return e.debugPlan() })
	c.SetDebugSource("state", "engine", func() any { return e.debugState() })
	// Report() is built entirely from atomics, so a mid-run scrape is safe;
	// a nil profiler renders as an empty report.
	c.SetDebugSource("profile", "engine", func() any { return e.Profiler().Report() })
	c.SetDebugSource("accuracy", "engine", func() any { return e.debugAccuracy() })
}

// NodeAccuracy is one estimating node's entry in /debug/accuracy.
type NodeAccuracy struct {
	Name  string                  `json:"name"`
	State *operator.AccuracyState `json:"state"`
}

// debugAccuracy collects the boundary-consistent accuracy snapshots of
// every node whose plan carries ESTIMATE columns. Nodes without estimates
// (and partial-agg nodes, which reject estimating plans) are omitted.
func (e *Engine) debugAccuracy() []NodeAccuracy {
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	out := []NodeAccuracy{}
	for _, n := range e.nodes() {
		if op := n.op(); op != nil && op.Estimating() {
			out = append(out, NodeAccuracy{Name: n.name, State: op.AccuracySnapshot()})
		}
	}
	return out
}

// op returns the operator a node runs, for the views only it can render;
// nil for a partial-aggregation node.
func (n *Node) op() *operator.Operator {
	op, _ := n.step.(*operator.Operator)
	return op
}

// level names the node's place in the plan: /debug/plan's field, and part
// of the snapshot fingerprint.
func (n *Node) level() string {
	switch {
	case !n.low:
		return "high"
	case n.partial != nil:
		return "low_partial"
	}
	return "low"
}

func (e *Engine) debugPlan() []NodePlan {
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	var out []NodePlan
	for _, n := range e.nodes() {
		np := NodePlan{
			Name:   n.name,
			Level:  n.level(),
			Output: n.schema.Name(),
			Plan:   n.plan.Describe(),
		}
		for _, sub := range n.subs {
			np.Subscribers = append(np.Subscribers, sub.name)
		}
		out = append(out, np)
	}
	return out
}

// SessionDebug is the standing-query session's entry in /debug/state.
type SessionDebug struct {
	Active     bool     `json:"active"`
	Queries    []string `json:"queries"`
	Taps       []string `json:"taps"`
	Installs   int64    `json:"installs"`
	Uninstalls int64    `json:"uninstalls"`
}

func (e *Engine) debugState() map[string]any {
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	nodes := make([]NodeDebug, 0, len(e.low)+len(e.high))
	for _, n := range e.nodes() {
		nd := NodeDebug{Name: n.name}
		if op := n.op(); op != nil {
			nd.State = op.DebugSnapshot()
		} else if s := n.partial.rt.Load(); s != nil {
			for _, sh := range s.shards {
				nd.Shards = append(nd.Shards, ShardDebug{
					ID:        sh.id,
					RingCap:   sh.ring.Cap(),
					RingLen:   sh.ring.Len(),
					RingDrops: sh.ring.Drops(),
					Folded:    sh.consumed.Load(),
					TuplesIn:  sh.aTuplesIn.Load(),
					TuplesOut: sh.aOut.Load(),
					Evictions: sh.aEvictions.Load(),
					Residents: sh.aResidents.Load(),
					BusyNS:    sh.aBusyNS.Load(),
				})
			}
		}
		nodes = append(nodes, nd)
	}
	st := map[string]any{
		"ring": RingDebug{
			Cap:    e.ring.Cap(),
			Len:    e.ring.Len(),
			Pushed: e.ring.Pushed(),
			Popped: e.ring.Popped(),
			Drops:  e.ring.Drops(),
			Peak:   e.RingPeak(),
		},
		"nodes": nodes,
	}
	if e.tr != nil {
		st["trace"] = e.tr.Summary()
	}
	if snaps := e.Overload(); len(snaps) > 0 {
		st["overload"] = snaps
	}
	if quotas := e.debugQuotas(); len(quotas) > 0 {
		st["quotas"] = quotas
	}
	if f := e.Failures(); len(f) > 0 {
		st["failures"] = f
	}
	if len(e.handles) > 0 || e.installs.Load() > 0 || e.SessionActive() {
		sd := SessionDebug{
			Active:     e.SessionActive(),
			Queries:    make([]string, 0, len(e.handles)),
			Taps:       make([]string, 0, len(e.taps)),
			Installs:   e.installs.Load(),
			Uninstalls: e.uninstalls.Load(),
		}
		for name := range e.handles {
			sd.Queries = append(sd.Queries, name)
		}
		for _, t := range e.taps {
			sd.Taps = append(sd.Taps, t.name)
		}
		sort.Strings(sd.Queries)
		sort.Strings(sd.Taps)
		st["session"] = sd
	}
	if ck := e.ckpt; ck != nil {
		st["checkpoint"] = map[string]any{
			"dir":      ck.cfg.Dir,
			"last_seq": ck.aSeq.Load(),
			"written":  ck.aWritten.Load(),
		}
	}
	return st
}
