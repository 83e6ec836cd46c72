package experiments

import (
	"fmt"
	"runtime"
	"time"

	"streamop/internal/trace"
	"streamop/internal/tuple"
)

// Sharded-throughput experiment: the paper runs Gigascope on a dual-CPU
// testbed and splits the low level from the high level; this experiment
// measures what the engine's hash-sharded partial aggregation adds on
// top — the same high-cardinality partial-aggregation pipeline run
// single-threaded (Run), then under RunParallel with increasing shard
// counts, with an exactness check of the final aggregates against the
// sequential oracle at every point.

// ShardPoint is one shard count's measurement.
type ShardPoint struct {
	Shards     int
	WallMS     float64
	PktsPerSec float64
	// Speedup is wall-clock relative to the 1-shard parallel run.
	Speedup float64
	// Exact reports whether final aggregates, emitted row count and
	// summed evictions matched the single-threaded Run bit for bit.
	Exact     bool
	Evictions int64
}

// ShardResult is the full sweep.
type ShardResult struct {
	Packets    int64
	Groups     int
	RunWallMS  float64 // single-threaded Run baseline
	GOMAXPROCS int
	Points     []ShardPoint
}

// shardOutcome captures one run's observable output for the exactness
// comparison.
type shardOutcome struct {
	groups    map[[2]uint64][2]int64
	rows      int64
	evictions int64
	wall      time.Duration
}

// shardRun builds the partial-aggregation pipeline (4096-slot table, high
// re-aggregation) and runs it over pkts. shards <= 0 selects the
// single-threaded Run; otherwise RunParallel unpaced with that fan-out.
func shardRun(seed uint64, pkts []trace.Packet, shards int) (shardOutcome, error) {
	out := shardOutcome{groups: map[[2]uint64][2]int64{}}
	c, err := buildChain(1<<13, seed, `SELECT tb, srcIP, sum(len) AS bytes, count(*) AS pkts FROM PKT GROUP BY time/1 as tb, srcIP`, 4096,
		stage{"final", `SELECT tb2, srcIP, sum(bytes), sum(pkts) FROM low GROUP BY tb/1 as tb2, srcIP`})
	if err != nil {
		return out, err
	}
	if shards > 0 {
		c.table.SetShards(shards)
	}
	c.high[0].Subscribe(func(row tuple.Tuple) error {
		k := [2]uint64{row[0].AsUint(), row[1].Uint()}
		v := out.groups[k]
		v[0] += row[2].AsInt()
		v[1] += row[3].AsInt()
		out.groups[k] = v
		out.rows++
		return nil
	})
	start := time.Now()
	if shards > 0 {
		err = c.RunParallel(trace.NewReplay(pkts), 0)
	} else {
		err = c.Run(trace.NewReplay(pkts))
	}
	out.wall = time.Since(start)
	if err != nil {
		return out, err
	}
	out.evictions = c.table.Evictions()
	return out, nil
}

func (a shardOutcome) matches(b shardOutcome) bool {
	if a.rows != b.rows || a.evictions != b.evictions || len(a.groups) != len(b.groups) {
		return false
	}
	for k, v := range a.groups {
		if b.groups[k] != v {
			return false
		}
	}
	return true
}

// Shard runs the sweep: Run baseline, then RunParallel at each shard
// count, all over the identical high-cardinality steady capture.
func Shard(seed uint64, durationSec float64, shardCounts []int) (ShardResult, error) {
	cfg := trace.SteadyConfig{Seed: seed, Duration: durationSec, Rate: 100000, Hosts: 4096}
	feed, err := trace.NewSteady(cfg)
	if err != nil {
		return ShardResult{}, err
	}
	pkts := trace.Collect(feed)

	oracle, err := shardRun(seed, pkts, 0)
	if err != nil {
		return ShardResult{}, fmt.Errorf("sequential baseline: %w", err)
	}
	res := ShardResult{
		Packets:    int64(len(pkts)),
		Groups:     len(oracle.groups),
		RunWallMS:  float64(oracle.wall.Microseconds()) / 1000,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	var base time.Duration
	for _, n := range shardCounts {
		o, err := shardRun(seed, pkts, n)
		if err != nil {
			return res, fmt.Errorf("shards=%d: %w", n, err)
		}
		if n == shardCounts[0] {
			base = o.wall
		}
		res.Points = append(res.Points, ShardPoint{
			Shards:     n,
			WallMS:     float64(o.wall.Microseconds()) / 1000,
			PktsPerSec: float64(len(pkts)) / o.wall.Seconds(),
			Speedup:    float64(base) / float64(o.wall),
			Exact:      o.matches(oracle),
			Evictions:  o.evictions,
		})
	}
	return res, nil
}
