package engine_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"streamop/internal/engine"
	"streamop/internal/gsql"
	"streamop/internal/sfunlib"
	"streamop/internal/trace"
	"streamop/internal/tuple"
)

// buildBenchTopology wires the standard two-level topology (pass-through
// low, per-second aggregation high).
func buildBenchTopology(b *testing.B) *engine.Engine {
	b.Helper()
	e, _ := engine.New(8192)
	low, err := e.AddLowLevel("l", mustPlanB(b, "SELECT time, srcIP, len, uts FROM PKT", trace.Schema()))
	if err != nil {
		b.Fatal(err)
	}
	high := mustPlanB(b, "SELECT tb, srcIP, sum(len) FROM l GROUP BY time/1 as tb, srcIP", low.Schema())
	if _, err := e.AddHighLevel("h", low, high); err != nil {
		b.Fatal(err)
	}
	return e
}

func benchPackets(b *testing.B, n int) []trace.Packet {
	b.Helper()
	cfg := trace.SteadyConfig{Seed: 1, Duration: float64(n) / 100000, Rate: 100000, Hosts: 256}
	feed, err := trace.NewSteady(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return trace.Collect(feed)
}

// BenchmarkEngineRun measures the single-threaded end-to-end per-packet
// cost of the two-level topology.
func BenchmarkEngineRun(b *testing.B) {
	pkts := benchPackets(b, 100000)
	b.ReportAllocs()
	b.ResetTimer()
	processed := 0
	for processed < b.N {
		b.StopTimer()
		e := buildBenchTopology(b)
		b.StartTimer()
		if err := e.Run(sliceFeed(pkts)); err != nil {
			b.Fatal(err)
		}
		processed += len(pkts)
	}
	b.ReportMetric(float64(len(pkts)), "pkts/run")
}

// BenchmarkTwoLevelHop prices the low-to-high hop in the paper's expensive
// configuration (Fig. 5: a pass-through tap feeding the subset-sum query
// as a high-level node, the benchmark's two_level workload): ns/op is
// per packet, and allocs/op — allocations per packet, every one of which
// crosses the hop — is the number the columnar edge exists to keep near
// zero (what is left is the sampling operator's group churn and its
// output rows).
func BenchmarkTwoLevelHop(b *testing.B) {
	pkts := benchPackets(b, 100000)
	b.ReportAllocs()
	b.ResetTimer()
	processed := 0
	for processed < b.N {
		b.StopTimer()
		e, _ := hopBuild(b, hopTopos[0], nil)
		b.StartTimer()
		if err := e.Run(sliceFeed(pkts)); err != nil {
			b.Fatal(err)
		}
		processed += len(pkts)
	}
	b.ReportMetric(float64(len(pkts)), "pkts/run")
}

// BenchmarkPumpSelf prices what the engine itself costs a packet: Run and a
// session take a pre-materialised 1 M-packet slice into one low-level node
// whose stateless WHERE rejects every row, so what is timed is the pump,
// the source ring, trace.AppendBatch and one kernel. One op is one run of
// the slice; ns/pkt is the figure.
func BenchmarkPumpSelf(b *testing.B) {
	pkts := benchPackets(b, 1_000_000)
	for _, mode := range []string{"run", "session"} {
		b.Run(mode, func(b *testing.B) {
			for range b.N {
				b.StopTimer()
				e, _ := engine.New(8192)
				if _, err := e.AddLowLevel("l", mustPlanB(b, "SELECT len FROM PKT WHERE len < 0", trace.Schema())); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				var err error
				if mode == "session" {
					if err = e.Start(context.Background(), sliceFeed(pkts)); err == nil {
						err = e.Wait()
					}
				} else {
					err = e.Run(sliceFeed(pkts))
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pkts)), "ns/pkt")
		})
	}
}

// BenchmarkEngineRunParallel measures the concurrent (unpaced,
// backpressured) end-to-end cost of the same topology.
func BenchmarkEngineRunParallel(b *testing.B) {
	pkts := benchPackets(b, 100000)
	b.ReportAllocs()
	b.ResetTimer()
	processed := 0
	for processed < b.N {
		b.StopTimer()
		e := buildBenchTopology(b)
		b.StartTimer()
		if err := e.RunParallel(sliceFeed(pkts), 0); err != nil {
			b.Fatal(err)
		}
		processed += len(pkts)
	}
	b.ReportMetric(float64(len(pkts)), "pkts/run")
}

// BenchmarkPartialAggProcess measures the partial-aggregation fast path.
func BenchmarkPartialAggProcess(b *testing.B) {
	pkts := benchPackets(b, 100000)
	b.ResetTimer()
	processed := 0
	for processed < b.N {
		b.StopTimer()
		e, _ := engine.New(8192)
		plan := mustPlanB(b, "SELECT tb, srcIP, sum(len) FROM PKT GROUP BY time/1 as tb, srcIP", trace.Schema())
		if _, err := e.AddLowLevelPartialAgg("p", plan, 4096); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := e.Run(sliceFeed(pkts)); err != nil {
			b.Fatal(err)
		}
		processed += len(pkts)
	}
}

// buildShardedBench wires a high-cardinality partial-aggregation node
// with the given shard count (hosts ~ slots, so the group table churns
// and the per-packet group-by/hash/fold work dominates).
func buildShardedBench(b *testing.B, shards int) *engine.Engine {
	b.Helper()
	e, _ := engine.New(8192)
	plan := mustPlanB(b, "SELECT tb, srcIP, sum(len), count(*) FROM PKT GROUP BY time/1 as tb, srcIP", trace.Schema())
	pn, err := e.AddLowLevelPartialAgg("p", plan, 4096)
	if err != nil {
		b.Fatal(err)
	}
	pn.SetShards(shards)
	return e
}

func shardBenchPackets(b *testing.B) []trace.Packet {
	b.Helper()
	cfg := trace.SteadyConfig{Seed: 9, Duration: 1, Rate: 100000, Hosts: 4096}
	feed, err := trace.NewSteady(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return trace.Collect(feed)
}

// BenchmarkShardedPartialAgg measures unpaced RunParallel throughput of a
// partial-aggregation node across shard counts. Run with -cpu 1,2,4 to
// see how fan-out interacts with GOMAXPROCS. The figures on record are
// docs/PERFORMANCE.md's ten-pair medians of shards=2 and the ledger's
// engine.sharded2_ns_per_pkt rung (benchmark/, --trace 1).
func BenchmarkShardedPartialAgg(b *testing.B) {
	pkts := shardBenchPackets(b)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			processed := 0
			b.ResetTimer()
			for processed < b.N {
				b.StopTimer()
				e := buildShardedBench(b, shards)
				b.StartTimer()
				if err := e.RunParallel(sliceFeed(pkts), 0); err != nil {
					b.Fatal(err)
				}
				processed += len(pkts)
			}
			b.ReportMetric(float64(len(pkts)), "pkts/run")
		})
	}
}

// minPass runs interleaved base/variant passes and returns the minimum
// observed time on each side — the min-vs-min damping the repo's guard
// benchmarks use (transient load must cover one whole side to skew the
// ratio). At least 5 pairs even under -benchtime=1x.
func minPass(bN int, base, variant func() time.Duration) (time.Duration, time.Duration) {
	iters := bN
	if iters < 5 {
		iters = 5
	}
	minBase, minVar := time.Duration(0), time.Duration(0)
	for i := 0; i < iters; i++ {
		runtime.GC()
		if d := base(); minBase == 0 || d < minBase {
			minBase = d
		}
		runtime.GC()
		if d := variant(); minVar == 0 || d < minVar {
			minVar = d
		}
	}
	return minBase, minVar
}

// BenchmarkShardedThroughputGuard enforces the sharding win: on a host
// with at least 4 CPUs, a 4-shard partial-aggregation run must be at
// least as fast as the 1-shard run on the high-cardinality workload.
// Metric: speedup-x (1-shard time / 4-shard time, min-vs-min). On
// smaller hosts the ratio is still reported but not enforced — four
// time-sliced workers on one core cannot beat one.
func BenchmarkShardedThroughputGuard(b *testing.B) {
	pkts := shardBenchPackets(b)
	pass := func(shards int) func() time.Duration {
		return func() time.Duration {
			e := buildShardedBench(b, shards)
			start := time.Now()
			if err := e.RunParallel(sliceFeed(pkts), 0); err != nil {
				b.Fatal(err)
			}
			return time.Since(start)
		}
	}
	minUnsharded, minSharded := minPass(b.N, pass(1), pass(4))
	speedup := float64(minUnsharded) / float64(minSharded)
	b.ReportMetric(speedup, "speedup-x")
	if runtime.NumCPU() >= 4 && speedup < 1.0 {
		b.Errorf("4-shard run slower than 1-shard on %d CPUs: speedup %.2fx", runtime.NumCPU(), speedup)
	}
}

// mustPlanB is the benchmark-friendly version of mustPlan.
func mustPlanB(b *testing.B, src string, schema *tuple.Schema) *gsql.Plan {
	b.Helper()
	q, err := gsql.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	p, err := gsql.Analyze(q, schema, sfunlib.Default(1))
	if err != nil {
		b.Fatal(err)
	}
	return p
}
