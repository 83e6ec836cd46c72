// Package profile is the EXPLAIN ANALYZE layer for GSQL plans: sampled
// per-node, per-stage self-time attribution over the two-level engine.
// Telemetry (internal/telemetry) counts rows, tracing (internal/tracing)
// follows individual tuples; profiling answers *where the cycles go* — how
// the ~22x operator-vs-raw-algorithm overhead of BenchmarkAblationOverhead
// decomposes across ring dequeue, WHERE, group lookup, SFUN updates,
// cleaning, HAVING, emission and the high-level transfer copy.
//
// The cost model: timing every tuple would distort the thing being
// measured, so a NodeProfile samples 1-in-Every tuples with the same
// deterministic gap schedule tracing uses (uniform in [1, 2*Every-1], mean
// Every, drawn from internal/xrand). A sampled tuple is walked through its
// stages with "laps" — consecutive clock reads whose deltas tile the
// tuple's total processing time, so stage self-times cannot overlap or
// leave gaps. Rare, already-batched work (cleaning phases, window
// rotation, the per-row transfer copy) is timed exactly instead. At report
// time each stage's estimate is
//
//	exactNS + (sampledNS - spans*perSpanOverheadNS) * rows/sampledRows
//
// where perSpanOverheadNS is calibrated at profiler construction by timing
// the lap primitive itself — without the correction the clock reads
// (~20-30ns each, ~8 per sampled tuple) would inflate estimates by tens of
// percent and break the "stage times sum to wall time" property the
// attribution test checks.
//
// Concurrency: sampling-schedule state is plain fields owned by the node's
// processing goroutine (mirroring the tracer's NextSeq design), while every
// accumulator is atomic, so /debug/profile can render a Report from the
// HTTP goroutine mid-run without races. Under RunParallel each shard
// worker gets its own NodeProfile (Profiler.NodeShard), so shards never
// share schedule state.
package profile

import (
	"sync"
	"sync/atomic"
	"time"

	"streamop/internal/telemetry"
	"streamop/internal/xrand"
)

// Stage identifies one plan-node cost bucket.
type Stage int

const (
	// StageDequeue covers ring PopBatch and packet→tuple conversion.
	StageDequeue Stage = iota
	// StageWhere is the admission predicate (possibly stateful).
	StageWhere
	// StageGroupLookup covers group-by evaluation, supergroup and group
	// table probes/inserts, and window-rotation table maintenance.
	StageGroupLookup
	// StageSfunUpdate covers superaggregate OnTuple/OnGroupAdd, per-group
	// aggregate updates, contribution bookkeeping and WindowFinal.
	StageSfunUpdate
	// StageCleaning covers CLEANING WHEN evaluation and CLEANING BY
	// eviction sweeps.
	StageCleaning
	// StageHaving is the window-close HAVING pass.
	StageHaving
	// StageEmit is SELECT-list evaluation for output rows.
	StageEmit
	// StageTransfer is the per-row downstream handoff: the subscriber copy
	// Gigascope charges to the producing node, plus application callbacks.
	StageTransfer

	// NumStages is the number of stages; every NodeReport carries exactly
	// this many StageReports, in Stage order.
	NumStages
)

var stageNames = [NumStages]string{
	"dequeue", "where", "group_lookup", "sfun_update",
	"cleaning", "having", "emit", "transfer",
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

// Now returns monotonic nanoseconds since package init. It is the clock
// every lap uses; callers treat 0 as "no lap in progress", which Begin
// guards against.
func Now() int64 { return int64(time.Since(base)) }

// DefEvery is the default sampling rate: 1 in 64 tuples. At the ablation
// workload's ~600ns/tuple this keeps profiling overhead well under the 5%
// budget BenchmarkProfilingOverheadGuard enforces while leaving thousands
// of sampled tuples per million packets.
const DefEvery = 64

// LatencyBounds are the window end-to-end latency histogram buckets
// (seconds), shared by the profiler's internal histogram and the
// streamop_window_latency_seconds telemetry family so quantiles agree.
var LatencyBounds = []float64{
	1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10,
}

// Config parameterizes a Profiler.
type Config struct {
	// Every samples on average one in Every tuples per node (gaps uniform
	// in [1, 2*Every-1]). Values < 1 are treated as 1 (time everything).
	Every int
	// Seed seeds every node's sampling schedule; equal seeds sample the
	// same tuple sequence numbers.
	Seed uint64
}

// Profiler owns the per-node profiles of one run and the calibrated cost
// of the lap primitive. Node registration is mutex-guarded; the hot path
// never touches the Profiler itself.
type Profiler struct {
	every  int
	seed   uint64
	spanNS float64 // calibrated per-lap overhead, subtracted at report time
	start  int64   // Now() at construction

	mu    sync.Mutex
	nodes []*NodeProfile
}

// New returns a profiler sampling 1-in-cfg.Every tuples per node and
// calibrates the lap overhead on this machine.
func New(cfg Config) *Profiler {
	every := cfg.Every
	if every < 1 {
		every = 1
	}
	p := &Profiler{every: every, seed: cfg.Seed, start: Now()}
	p.spanNS = calibrate()
	return p
}

// calibrate measures the cost of one lap (a clock read plus two atomic
// adds) by running the primitive back-to-back on a scratch profile. The
// estimate is the cheapest of several short rounds: an interrupt or a
// descheduling inside a round can only add to it, and some 3/4 of a
// sampled lap on the ablation workload is this overhead, so a calibration
// 10% too high takes 30% off every estimate scaled from it.
func calibrate() float64 {
	const rounds, iters = 16, 512
	np := &NodeProfile{every: 1}
	best := int64(-1)
	for r := 0; r < rounds; r++ {
		t0 := Now()
		t := t0
		for i := 0; i < iters; i++ {
			t = np.Lap(StageWhere, t)
		}
		if total := Now() - t0; total >= 0 && (best < 0 || total < best) {
			best = total
		}
	}
	if best < 0 {
		best = 0
	}
	return float64(best) / iters
}

// Every returns the sampling rate (1-in-Every).
func (p *Profiler) Every() int { return p.every }

// SpanOverheadNS returns the calibrated per-lap overhead.
func (p *Profiler) SpanOverheadNS() float64 { return p.spanNS }

// Node returns (registering on first use) the unsharded profile for the
// named plan node.
func (p *Profiler) Node(name string) *NodeProfile { return p.NodeShard(name, -1) }

// NodeShard returns (registering on first use) the profile for one shard
// replica of the named node; shard -1 means unsharded. Each shard replica
// owns its schedule state, so workers never contend.
func (p *Profiler) NodeShard(name string, shard int) *NodeProfile {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, np := range p.nodes {
		if np.name == name && np.shard == shard {
			return np
		}
	}
	np := newNodeProfile(name, shard, p.every, p.seed)
	p.nodes = append(p.nodes, np)
	return np
}

// stageAcc accumulates one stage's cost evidence. All fields are atomics:
// the owning goroutine adds, any goroutine may read.
type stageAcc struct {
	rowsIn  atomic.Int64 // rows entering the stage (exact, boundary-synced)
	rowsOut atomic.Int64 // rows surviving the stage (exact, boundary-synced)
	basis   atomic.Int64 // population the sampled rows were drawn from
	sampled atomic.Int64 // sampled rows timed at this stage
	spans   atomic.Int64 // laps recorded (for overhead compensation)
	selfNS  atomic.Int64 // summed sampled lap time
	exactNS atomic.Int64 // exactly measured time (not scaled)
}

// NodeProfile is one plan node's (or shard replica's) profile. Schedule
// state is owned by the node's processing goroutine; accumulators are
// atomic. The zero NodeProfile is unusable — obtain one from a Profiler.
type NodeProfile struct {
	name  string
	shard int
	every uint64

	// Tuple sampling schedule (owned by the processing goroutine).
	rng  *xrand.Rand
	seq  uint64
	next uint64

	// Source-conversion schedule: a second, independent decimator for the
	// engine-side packet→tuple conversion, so StageDequeue sampling cannot
	// interfere with the operator's tuple schedule.
	srcRng  *xrand.Rand
	srcSeq  uint64
	srcNext uint64

	stages [NumStages]stageAcc

	groups      atomic.Int64 // group-table occupancy at last boundary
	supergroups atomic.Int64
	groupBytes  atomic.Int64 // approximate group-table bytes
	windows     atomic.Int64

	latency *telemetry.Histogram // window end-to-end latency, seconds
}

func newNodeProfile(name string, shard int, every int, seed uint64) *NodeProfile {
	np := &NodeProfile{
		name:    name,
		shard:   shard,
		every:   uint64(every),
		rng:     xrand.New(seed ^ hashName(name, shard)),
		srcRng:  xrand.New(seed ^ hashName(name, shard) ^ 0x9e3779b97f4a7c15),
		latency: telemetry.NewHistogram(LatencyBounds),
	}
	np.next = np.gap(np.rng) - 1
	np.srcNext = np.gap(np.srcRng) - 1
	return np
}

// hashName decorrelates per-node schedules under a shared seed (FNV-1a).
func hashName(name string, shard int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return (h ^ uint64(shard+1)) * 1099511628211
}

func (np *NodeProfile) gap(rng *xrand.Rand) uint64 {
	if np.every <= 1 {
		return 1
	}
	return 1 + rng.Uint64n(2*np.every-1)
}

// Name returns the plan-node name.
func (np *NodeProfile) Name() string { return np.name }

// Shard returns the shard replica index, -1 when unsharded.
func (np *NodeProfile) Shard() int { return np.shard }

// Begin advances the tuple schedule and, when this tuple is sampled,
// returns a non-zero lap clock to thread through Lap calls. It returns 0
// on a nil profile or an unsampled tuple, so the disabled/unsampled path
// is one nil check plus one counter compare.
func (np *NodeProfile) Begin() int64 {
	if np == nil {
		return 0
	}
	s := np.seq
	np.seq++
	if s != np.next {
		return 0
	}
	np.next += np.gap(np.rng)
	now := Now()
	if now == 0 {
		now = 1
	}
	return now
}

// BeginSrc is Begin on the independent source-conversion schedule
// (engine-side StageDequeue sampling).
func (np *NodeProfile) BeginSrc() int64 {
	if np == nil {
		return 0
	}
	s := np.srcSeq
	np.srcSeq++
	if s != np.srcNext {
		return 0
	}
	np.srcNext += np.gap(np.srcRng)
	now := Now()
	if now == 0 {
		now = 1
	}
	return now
}

// Lap closes one sampled span at stage: the time since t0 is charged to
// the stage and the current clock is returned for the next lap. Callers
// only invoke Lap with a non-zero t0 obtained from Begin/BeginSrc/Now.
func (np *NodeProfile) Lap(stage Stage, t0 int64) int64 {
	now := Now()
	acc := &np.stages[stage]
	acc.selfNS.Add(now - t0)
	acc.spans.Add(1)
	return now
}

// Mark counts one sampled row at stage. Call exactly once per sampled row
// per stage that laps into it, so report scaling (basis/sampled) holds.
func (np *NodeProfile) Mark(stage Stage) {
	np.stages[stage].sampled.Add(1)
}

// LapMark is Lap plus Mark, for stages a sampled row laps exactly once.
func (np *NodeProfile) LapMark(stage Stage, t0 int64) int64 {
	np.Mark(stage)
	return np.Lap(stage, t0)
}

// AddExact charges ns of exactly measured (unscaled) time to stage.
func (np *NodeProfile) AddExact(stage Stage, ns int64) {
	np.stages[stage].exactNS.Add(ns)
}

// AddRows adds to a stage's exact row counters incrementally (cleaning
// phases and transfer use this; boundary-synced stages use SyncRows).
func (np *NodeProfile) AddRows(stage Stage, in, out int64) {
	acc := &np.stages[stage]
	acc.rowsIn.Add(in)
	acc.rowsOut.Add(out)
}

// SyncRows stores a stage's exact row counts and sampling basis as
// absolute values (called at window/batch boundaries from the component
// that owns the counts).
func (np *NodeProfile) SyncRows(stage Stage, in, out, basis int64) {
	acc := &np.stages[stage]
	acc.rowsIn.Store(in)
	acc.rowsOut.Store(out)
	acc.basis.Store(basis)
}

// SyncBasis stores only a stage's sampling basis (used when row counts are
// accumulated incrementally, as for cleaning).
func (np *NodeProfile) SyncBasis(stage Stage, basis int64) {
	np.stages[stage].basis.Store(basis)
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
