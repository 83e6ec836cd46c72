// Package profile is the EXPLAIN ANALYZE layer for GSQL plans: exact
// per-node, per-stage self-time attribution over the two-level engine.
// Telemetry (internal/telemetry) counts rows, tracing (internal/tracing)
// follows individual tuples; profiling answers *where the cycles go* — how
// the operator-vs-raw-algorithm overhead of BenchmarkAblationOverhead
// decomposes across ring dequeue and conversion, the column kernels, the
// row-order walk, cleaning sweeps, window flushes and the hand-off of
// selected rows.
//
// The cost model: the batch is the engine's unit of work, so it is the
// profiler's unit of time. A profiled node reads the clock between the
// phases of each batch (a few reads per 512 packets) and once around each
// cleaning sweep and window flush; every reading is exact and lands in an
// atomic accumulator, so a stage's time is a plain sum — nothing is
// sampled, scaled or compensated at report time. Sweeps and flushes happen
// inside the walk; they clock themselves and the walk is charged the
// remainder, so the stages of a node tile its busy time.
//
// What no batch clock can separate stays together: WHERE verdicts of a
// stateful predicate, group and supergroup lookups, aggregate updates and
// the CLEANING WHEN test interleave per row, and are all "walk". A batch
// in closure mode (a plan that does not vectorize, or a kernel evaluation
// error) has no kernel phase: its GROUP BY closures and walk are charged
// to walk whole. The per-packet entry points
// (Operator.Process, core.Query.ProcessPacket/ProcessTuple) offer batches
// of one and are clocked like any other batch.
//
// Concurrency: every accumulator is atomic and owned by the node's
// processing goroutine for writing, so /debug/profile can render a Report
// from the HTTP goroutine mid-run without races. Under RunParallel each
// shard worker gets its own NodeProfile (Profiler.NodeShard).
package profile

import (
	"sync"
	"sync/atomic"
	"time"

	"streamop/internal/telemetry"
)

// Stage identifies one plan-node cost bucket.
type Stage int

const (
	// StageDequeue covers ring PopBatch (charged to the "source"
	// pseudo-node) and each node's packet→column conversion.
	StageDequeue Stage = iota
	// StageKernelGroupBy is the GROUP BY column kernels plus arming the
	// ordered-window fast path.
	StageKernelGroupBy
	// StageKernelWhere is the stateless WHERE kernel, or the argument
	// kernels of a semi-stateful WHERE call.
	StageKernelWhere
	// StageKernelArgs is the aggregate, superaggregate and CLEANING WHEN
	// argument kernels; for a selection plan, the SELECT-list kernels.
	StageKernelArgs
	// StageWalk is the row-order pass that applies state mutations:
	// stateful WHERE calls, supergroup and group lookups, aggregate
	// updates, CLEANING WHEN, a partial-aggregation table's collision
	// evictions — and any batch or traced row that ran row at a time.
	// Rows out are the rows WHERE accepted.
	StageWalk
	// StageCleaning is the CLEANING BY eviction sweeps: groups examined in,
	// groups kept out.
	StageCleaning
	// StageFlush is the window close: WindowFinal, HAVING, SELECT
	// evaluation and row-by-row emission of the sample, table rotation.
	// Groups resident in, rows emitted out.
	StageFlush
	// StageTransfer is the bulk hand-off of a selection batch's rows to
	// subscriber edges and application callbacks.
	StageTransfer

	// NumStages is the number of stages; every NodeReport carries exactly
	// this many StageReports, in Stage order.
	NumStages
)

var stageNames = [NumStages]string{
	"dequeue", "kernel_groupby", "kernel_where", "kernel_args",
	"walk", "cleaning", "flush", "transfer",
}

// String returns the stage's snake_case name as used in reports.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// base anchors the package monotonic clock; Now costs one reading of the
// runtime's monotonic clock.
var base = time.Now()

// Now returns monotonic nanoseconds since package init: the clock every
// stage reading and window-latency anchor uses.
func Now() int64 { return int64(time.Since(base)) }

// LatencyBounds are the window end-to-end latency histogram buckets
// (seconds), shared by the profiler's internal histogram and the
// streamop_window_latency_seconds telemetry family so quantiles agree.
var LatencyBounds = []float64{
	1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10,
}

// nodeKey names one profile: a plan node, or one shard replica of it.
type nodeKey struct {
	name  string
	shard int // -1 when unsharded
}

// Profiler owns the per-node profiles of one run or session. Node
// registration is mutex-guarded; the hot path never touches the Profiler
// itself.
type Profiler struct {
	start int64 // Now() at construction

	mu    sync.Mutex
	nodes map[nodeKey]*NodeProfile
}

// New returns an empty profiler.
func New() *Profiler {
	return &Profiler{start: Now(), nodes: map[nodeKey]*NodeProfile{}}
}

// Node returns (registering on first use) the unsharded profile for the
// named plan node.
func (p *Profiler) Node(name string) *NodeProfile { return p.NodeShard(name, -1) }

// NodeShard returns (registering on first use) the profile for one shard
// replica of the named node; shard -1 means unsharded. A nil Profiler
// yields a nil profile, which every NodeProfile method accepts.
func (p *Profiler) NodeShard(name string, shard int) *NodeProfile {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	key := nodeKey{name, shard}
	np := p.nodes[key]
	if np == nil {
		np = &NodeProfile{key: key, latency: telemetry.NewHistogram(LatencyBounds)}
		p.nodes[key] = np
	}
	return np
}

// Release forgets np: the node left the topology, its times leave the
// report, and a node registered under the same name later starts from
// zero. A nil profiler or profile is a no-op.
func (p *Profiler) Release(np *NodeProfile) {
	if p == nil || np == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.nodes[np.key] == np {
		delete(p.nodes, np.key)
	}
}

// stageAcc accumulates one stage's cost. All fields are atomics: the
// owning goroutine adds, any goroutine may read.
type stageAcc struct {
	ns      atomic.Int64
	rowsIn  atomic.Int64
	rowsOut atomic.Int64
}

// NodeProfile is one plan node's (or shard replica's) profile. The zero
// NodeProfile is unusable — obtain one from a Profiler; a nil one accepts
// every call and records nothing, which is how profiling is off.
type NodeProfile struct {
	key    nodeKey
	stages [NumStages]stageAcc

	groups      atomic.Int64 // group-table occupancy at last boundary
	supergroups atomic.Int64
	groupBytes  atomic.Int64 // approximate group-table bytes
	windows     atomic.Int64

	latency *telemetry.Histogram // window end-to-end latency, seconds
}

// Start reads the clock for a run of consecutive stages; 0 on a nil
// profile, so profiling off costs a nil check per clock site.
func (np *NodeProfile) Start() int64 {
	if np == nil {
		return 0
	}
	return Now()
}

// Charge closes one stage: the time since t0 and the rows that entered
// and left go to stage, and the clock just read is returned as the next
// stage's t0. A stage that nests self-clocking work passes t0 advanced by
// that work's duration, which charges it the remainder.
func (np *NodeProfile) Charge(stage Stage, t0, in, out int64) int64 {
	if np == nil {
		return 0
	}
	now := Now()
	acc := &np.stages[stage]
	acc.ns.Add(now - t0)
	acc.rowsIn.Add(in)
	acc.rowsOut.Add(out)
	return now
}

// ObserveWindow records one closed window's end-to-end latency.
func (np *NodeProfile) ObserveWindow(latencySeconds float64) {
	np.windows.Add(1)
	np.latency.Observe(latencySeconds)
}

// Latency returns the window-latency histogram (for mirroring into a
// telemetry registry or computing quantiles).
func (np *NodeProfile) Latency() *telemetry.Histogram { return np.latency }

// SetOccupancy stores the node's table occupancy at a boundary: resident
// groups, supergroups and the approximate bytes they pin.
func (np *NodeProfile) SetOccupancy(groups, supergroups, bytes int64) {
	np.groups.Store(groups)
	np.supergroups.Store(supergroups)
	np.groupBytes.Store(bytes)
}
