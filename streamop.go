// Package streamop is a Go implementation of the stream sampling operator
// of Johnson, Muthukrishnan and Rozenbaum, "Sampling Algorithms in a
// Stream Operator" (SIGMOD 2005), together with the Gigascope-style
// two-level stream engine it runs in and the sampling algorithms it
// expresses: dynamic (relaxed) subset-sum sampling, reservoir sampling,
// min-wise hash sampling and Manku-Motwani heavy hitters.
//
// The quickest path is Compile + RunFeed:
//
//	q, err := streamop.Compile(`
//	    SELECT uts, srcIP, destIP, UMAX(sum(len), ssthreshold()) AS adjlen
//	    FROM PKT
//	    WHERE ssample(len, 1000, 2, 10) = TRUE
//	    GROUP BY time/20 as tb, srcIP, destIP, uts
//	    HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
//	    CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
//	    CLEANING BY ssclean_with(sum(len)) = TRUE`, streamop.Options{})
//	...
//	err = q.RunFeed(feed)   // q.Collected now holds ~1000 samples per window
//
// or, streaming instead of collecting:
//
//	q.SetFeed(feed)
//	for row := range q.Rows() { ... }   // rows arrive as windows close
//	err = q.Err()
//
// Queries use the GSQL dialect extended with the paper's SUPERGROUP,
// CLEANING WHEN and CLEANING BY clauses, superaggregates such as
// count_distinct$(*) and kth_smallest_value$(x, k), and the stateful
// function library: the subset-sum family (ssample/ssthreshold/
// ssdo_clean/ssclean_with/ssfinal_clean, bssample), the reservoir family
// (rsample/rsdo_clean/rsclean_with/rsfinal_clean), the heavy-hitter
// helpers (local_count/current_bucket), Gibbons distinct sampling
// (dsample/dsdo_clean/dskeep/dsscale), priority sampling
// (psample/pskeep/psdo_clean/pstau) and the scalars UMAX/UMIN/H. See
// docs/QUERYLANG.md for the full reference.
//
// For multi-node topologies — low-level early data reduction feeding
// high-level sampling queries, with per-node CPU accounting — use Engine.
// The synthetic packet feeds substitute for the paper's live network taps;
// all are deterministic given a seed.
package streamop

import (
	"streamop/internal/checkpoint"
	"streamop/internal/core"
	"streamop/internal/engine"
	"streamop/internal/flow"
	"streamop/internal/gsql"
	"streamop/internal/overload"
	"streamop/internal/sample/quantile"
	"streamop/internal/sfun"
	"streamop/internal/sfunlib"
	"streamop/internal/trace"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// Query is a compiled, running sampling query. See core.Query.
type Query = core.Query

// Row is one output sample row with named columns.
type Row = core.Row

// Options configures query compilation.
type Options = core.Options

// Compile parses, analyzes and instantiates a sampling query. With the
// zero Options it reads the PKT packet schema and uses the full stateful
// function library.
func Compile(src string, opts Options) (*Query, error) { return core.Compile(src, opts) }

// Packet is one captured IP packet header.
type Packet = trace.Packet

// FlowKey identifies a flow by its 5-tuple.
type FlowKey = trace.FlowKey

// Feed produces a finite, time-ordered packet stream.
type Feed = trace.Feed

// Value is one scalar datum flowing through queries.
type Value = value.Value

// Value constructors, for user-defined stateful functions.
func BoolValue(b bool) Value     { return value.NewBool(b) }
func IntValue(i int64) Value     { return value.NewInt(i) }
func UintValue(u uint64) Value   { return value.NewUint(u) }
func FloatValue(f float64) Value { return value.NewFloat(f) }
func StringValue(s string) Value { return value.NewString(s) }

// Tuple is one record: a slice of values matching a schema.
type Tuple = tuple.Tuple

// Schema describes a stream's fields and their ordering properties.
type Schema = tuple.Schema

// PKTSchema returns the packet stream schema:
// PKT(time uint increasing, srcIP, destIP, srcPort, destPort, proto, len, uts).
func PKTSchema() *Schema { return trace.Schema() }

// Registry holds stateful functions available to queries.
type Registry = sfun.Registry

// NewRegistry returns an empty stateful-function registry, for callers
// providing their own algorithm families.
func NewRegistry() *Registry { return sfun.NewRegistry() }

// DefaultRegistry returns the full standard library (subset-sum,
// reservoir, heavy-hitter families plus scalars), seeded deterministically.
func DefaultRegistry(seed uint64) *Registry { return sfunlib.Default(seed) }

// StateType and Func declare user stateful functions; AggFunc and
// Accumulator declare user-defined aggregates (UDAFs) — the integration
// layer the paper's §8 prescribes for holistic algorithms such as the
// Greenwald-Khanna quantile summary. See the sfun package.
type (
	StateType   = sfun.StateType
	Func        = sfun.Func
	AggFunc     = sfun.AggFunc
	Accumulator = sfun.Accumulator
)

// RegisterQuantileUDAF adds the Greenwald-Khanna epsilon-approximate
// quantile aggregate to reg, callable as quantile(x, phi [, epsilon]).
func RegisterQuantileUDAF(reg *Registry) error { return quantile.RegisterUDAF(reg) }

// Engine is the two-level (low-level / high-level) query runtime with
// per-node CPU accounting.
type Engine = engine.Engine

// Node is one query node in an Engine.
type Node = engine.Node

// NodeStats reports a node's activity and cost.
type NodeStats = engine.NodeStats

// NewEngine returns an engine whose source ring buffer holds ringSize
// packets.
func NewEngine(ringSize int) (*Engine, error) { return engine.New(ringSize) }

// Standing-query sessions (see docs/SERVER.md): Engine.Start pumps a
// feed on a background goroutine while Install and Uninstall add and
// remove queries mid-stream. Queries whose FROM is not PKT name a shared
// low-level "tap" — created from InstallOptions.Via on first use,
// deduplicated and refcounted across every query that reads it.

// StartOptions configures a standing-query session (Engine.StartWith).
type StartOptions = engine.StartOptions

// InstallOptions configures one standing query (Engine.Install).
type InstallOptions = engine.InstallOptions

// QueryHandle is one installed standing query: its columns, compiled
// plan (Explain), delivery counters and row subscriptions.
type QueryHandle = engine.QueryHandle

// Subscription is one subscriber's buffered row channel on a
// QueryHandle; see QueryHandle.Subscribe and QueryHandle.Rows.
type Subscription = engine.Subscription

// ErrSessionClosed is returned by Install/Uninstall routed to a session
// that has already drained.
var ErrSessionClosed = engine.ErrSessionClosed

// ErrDuplicateQuery is wrapped by Install when the query name is already
// taken; ErrUnknownQuery by Uninstall when it is not. Servers map these
// to 409 and 404 (see cmd/gsqd).
var (
	ErrDuplicateQuery = engine.ErrDuplicateQuery
	ErrUnknownQuery   = engine.ErrUnknownQuery
)

// Checkpointing and restore, for runs and sessions alike (see
// docs/ROBUSTNESS.md).

// CheckpointConfig configures boundary snapshots (Engine.SetCheckpoint):
// the directory, the every-N-closed-windows cadence and the on-disk
// history bound. A session additionally snapshots on every install and
// uninstall, so the standing-query registry is never older than the last
// pump boundary.
type CheckpointConfig = engine.CheckpointConfig

// RestoreInfo describes what Engine.Restore recovered from the newest
// valid snapshot, whether a one-shot run or a session wrote it: the
// snapshot's path and sequence, the packets the next run fast-forwards
// past, every restored node with its rows-already-out count and failure
// state, and the names of the standing queries and shared taps it
// re-installed. Restore wants the nodes added by hand rebuilt first and
// the standing-query registry empty: it replays the installs itself.
type RestoreInfo = engine.RestoreInfo

// ErrNoCheckpoint is returned (possibly wrapped) by Engine.Restore
// when the checkpoint directory holds no valid snapshot; callers treat
// it as a fresh start.
var ErrNoCheckpoint = checkpoint.ErrNoCheckpoint

// Quota is one standing query's per-tenant delivery budget (token-bucket
// rows/bytes per second of stream time) and subscriber-lag policy
// (warn → shed-with-counters → detach). The zero value is unlimited.
// Attach via InstallOptions.Quota; observe via QueryHandle.QuotaState,
// the streamop_quota_* gauges and /debug/state's "quotas" block.
type Quota = overload.Quota

// QuotaSnapshot is one quota-carrying query's observable admission state.
type QuotaSnapshot = overload.QuotaSnapshot

// Overload control and fault injection (see docs/ROBUSTNESS.md).

// OverloadPolicy selects how a producer treats a ring buffer under
// pressure: drop-tail (the default), shed-sample (adaptive probabilistic
// admission) or block (bounded backpressure).
type OverloadPolicy = overload.Policy

// Overload policies.
const (
	DropTail   = overload.DropTail
	ShedSample = overload.ShedSample
	Block      = overload.Block
)

// OverloadConfig parameterizes a ring's admission controller; the zero
// value is drop-tail with default thresholds. Engine.SetOverload applies
// it to every ring the engine gates.
type OverloadConfig = overload.Config

// OverloadSnapshot is one ring admission controller's observable state,
// as returned by Engine.Overload.
type OverloadSnapshot = overload.Snapshot

// ParseOverloadPolicy parses a policy name ("drop-tail", "shed-sample",
// "block"; dashes and underscores interchangeable).
func ParseOverloadPolicy(s string) (OverloadPolicy, error) { return overload.ParsePolicy(s) }

// Faults is a deterministic fault-injector set wrapping a packet feed
// (seeded packet drops, timestamp bursts, producer stalls, slow
// consumers). Attach with Engine.SetFaults or wrap a feed directly.
type Faults = overload.Faults

// ParseFaults parses an injector spec such as
// "drop:0.01,burst:256@0.5,stall:1ms@0.25,slow:20us"; an empty spec
// returns nil (no injection).
func ParseFaults(spec string, seed uint64) (*Faults, error) { return overload.ParseFaults(spec, seed) }

// PartialNode is a low-level partial-aggregation node: a fixed-size
// direct-mapped group table that emits the resident group on collision —
// real Gigascope's low-level aggregation, and the right pushdown for
// heavy-hitter queries (§8). Create with Engine.AddLowLevelPartialAgg;
// attach consumers to Base().
type PartialNode = engine.PartialNode

// Plan is a compiled query plan, for wiring queries into an Engine.
type Plan = gsql.Plan

// ParseAndAnalyze compiles query text against a schema and registry,
// returning the plan (AddLowLevel / AddHighLevel consume plans).
func ParseAndAnalyze(src string, schema *Schema, reg *Registry) (*Plan, error) {
	q, err := gsql.Parse(src)
	if err != nil {
		return nil, err
	}
	return gsql.Analyze(q, schema, reg)
}

// Feed constructors: deterministic synthetic substitutes for the paper's
// live taps.

// BurstyConfig parameterizes the variable-rate research-center feed.
type BurstyConfig = trace.BurstyConfig

// SteadyConfig parameterizes the 100k pps data-center feed.
type SteadyConfig = trace.SteadyConfig

// DDoSConfig parameterizes the tiny-flow attack scenario.
type DDoSConfig = trace.DDoSConfig

// FlowConfig parameterizes flow-structured traffic.
type FlowConfig = trace.FlowConfig

// NewBurstyFeed returns the highly variable feed (5k-15k pps with sharp
// collapses) used by the accuracy experiments.
func NewBurstyFeed(cfg BurstyConfig) (Feed, error) { return trace.NewBursty(cfg) }

// DefaultBursty returns the standard bursty configuration.
func DefaultBursty(seed uint64, duration float64) BurstyConfig {
	return trace.DefaultBursty(seed, duration)
}

// NewSteadyFeed returns the high-rate low-variability feed used by the
// CPU-cost experiments.
func NewSteadyFeed(cfg SteadyConfig) (Feed, error) { return trace.NewSteady(cfg) }

// DefaultSteady returns the standard steady configuration (100k pps).
func DefaultSteady(seed uint64, duration float64) SteadyConfig {
	return trace.DefaultSteady(seed, duration)
}

// NewDDoSFeed returns background traffic with a spoofed-source flood.
func NewDDoSFeed(cfg DDoSConfig) (Feed, error) { return trace.NewDDoS(cfg) }

// FloodConfig parameterizes a spoofed-source flood on its own.
type FloodConfig = trace.FloodConfig

// NewFloodFeed returns only the attack packets of a flood.
func NewFloodFeed(cfg FloodConfig) (Feed, error) { return trace.NewFlood(cfg) }

// MergeFeeds interleaves two time-ordered feeds in timestamp order.
func MergeFeeds(a, b Feed) Feed { return trace.Merge(a, b) }

// DefaultDDoS returns the standard attack configuration.
func DefaultDDoS(seed uint64, duration float64) DDoSConfig { return trace.DefaultDDoS(seed, duration) }

// NewFlowsFeed returns flow-structured traffic (Pareto flow sizes).
func NewFlowsFeed(cfg FlowConfig) (Feed, error) { return trace.NewFlows(cfg) }

// DefaultFlows returns the standard flow-traffic configuration.
func DefaultFlows(seed uint64, duration float64) FlowConfig {
	return trace.DefaultFlows(seed, duration)
}

// Sampled flows: the integrated flow-aggregation + subset-sum extension.

// FlowRecord is one sampled flow.
type FlowRecord = flow.Record

// FlowSamplerConfig parameterizes the integrated sampled-flows operator.
type FlowSamplerConfig = flow.Config

// FlowSampler is the integrated, memory-bounded flow sampler.
type FlowSampler = flow.Sampler

// NewFlowSampler returns an integrated sampled-flows operator.
func NewFlowSampler(cfg FlowSamplerConfig) (*FlowSampler, error) { return flow.NewSampler(cfg) }

// EstimateFlowBytes sums the adjusted weights of a sampled flow set.
func EstimateFlowBytes(flows []FlowRecord) float64 { return flow.EstimateBytes(flows) }
