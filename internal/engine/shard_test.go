package engine_test

import (
	"fmt"
	"testing"

	"streamop/internal/engine"
	"streamop/internal/trace"
	"streamop/internal/tuple"
	"streamop/internal/xrand"
)

// The exactness property behind the sharded runtime: because the
// producer routes packets by group-slot, every slot sees the same fold /
// evict / flush sequence it sees under the single-threaded Run, so an
// unpaced sharded RunParallel must reproduce Run bit for bit — the same
// final aggregates, the same number of emitted rows (window discipline:
// no window may be split by shard interleaving), and the same eviction
// count summed across shards.

// partialResult is one run's observable outcome.
type partialResult struct {
	groups    map[[2]uint64][2]int64 // (tb, srcIP) -> (sum bytes, sum pkts)
	rows      int64                  // high-level emissions (detects split windows)
	evictions int64
	packets   int64
}

// runPartialTopo runs a partial low-level node (64 slots, guaranteeing
// collisions at the cardinalities below) into a high-level re-aggregation
// and collects the final output. shards <= 0 leaves the default; parallel
// selects RunParallel (unpaced) over Run.
func runPartialTopo(t *testing.T, pkts []trace.Packet, shards int, parallel bool) partialResult {
	t.Helper()
	e, err := engine.New(4096)
	if err != nil {
		t.Fatal(err)
	}
	lowPlan := mustPlan(t,
		"SELECT tb, srcIP, sum(len) AS bytes, count(*) AS pkts FROM PKT GROUP BY time/1 as tb, srcIP",
		trace.Schema())
	low, err := e.AddLowLevelPartialAgg("partial", lowPlan, 64)
	if err != nil {
		t.Fatal(err)
	}
	if shards > 0 {
		low.SetShards(shards)
	}
	highPlan := mustPlan(t,
		"SELECT tb2, srcIP, sum(bytes), sum(pkts) FROM partial GROUP BY tb/1 as tb2, srcIP",
		low.Schema())
	high, err := e.AddHighLevel("final", low.Base(), highPlan)
	if err != nil {
		t.Fatal(err)
	}
	res := partialResult{groups: map[[2]uint64][2]int64{}}
	high.Subscribe(func(row tuple.Tuple) error {
		k := [2]uint64{row[0].AsUint(), row[1].Uint()}
		v := res.groups[k]
		v[0] += row[2].AsInt()
		v[1] += row[3].AsInt()
		res.groups[k] = v
		res.rows++
		return nil
	})
	if parallel {
		err = e.RunParallel(sliceFeed(pkts), 0)
	} else {
		err = e.Run(sliceFeed(pkts))
	}
	if err != nil {
		t.Fatal(err)
	}
	res.evictions = low.Evictions()
	res.packets = e.Packets()
	return res
}

// shardPackets generates a workload with the given group cardinality:
// hosts distinct sources over ~seconds one-second windows, randomized
// inter-arrival and sizes.
func shardPackets(seed uint64, n, hosts int) []trace.Packet {
	r := xrand.New(seed)
	pkts := make([]trace.Packet, 0, n)
	ts := uint64(0)
	for i := 0; i < n; i++ {
		ts += uint64(r.Intn(200_000)) // 0-200us apart
		pkts = append(pkts, trace.Packet{
			Time:  ts,
			SrcIP: 0x0a000000 + uint32(r.Intn(hosts)),
			Len:   uint16(40 + r.Intn(1400)),
		})
	}
	return pkts
}

// TestShardedParallelMatchesRunExactly is the property test from the
// sharding design: across shard counts and group cardinalities, an
// unpaced sharded RunParallel reproduces Run's final aggregates, row
// count and eviction count exactly.
func TestShardedParallelMatchesRunExactly(t *testing.T) {
	for _, hosts := range []int{3, 40, 400} {
		pkts := shardPackets(uint64(100+hosts), 30000, hosts)
		want := runPartialTopo(t, pkts, 0, false) // Run: the oracle
		if hosts > 64 && want.evictions == 0 {
			t.Fatalf("hosts=%d: no collisions; table too large for the test to bite", hosts)
		}
		for _, shards := range []int{1, 2, 7, 16} {
			t.Run(fmt.Sprintf("hosts=%d/shards=%d", hosts, shards), func(t *testing.T) {
				got := runPartialTopo(t, pkts, shards, true)
				if got.packets != want.packets {
					t.Fatalf("packets: got %d, want %d", got.packets, want.packets)
				}
				if got.rows != want.rows {
					t.Errorf("high-level rows: got %d, want %d (split or merged window?)", got.rows, want.rows)
				}
				if got.evictions != want.evictions {
					t.Errorf("evictions: got %d, want %d", got.evictions, want.evictions)
				}
				if len(got.groups) != len(want.groups) {
					t.Fatalf("groups: got %d, want %d", len(got.groups), len(want.groups))
				}
				for k, w := range want.groups {
					if got.groups[k] != w {
						t.Fatalf("group %v: got %v, want %v", k, got.groups[k], w)
					}
				}
			})
		}
	}
}

// TestShardResolution covers the shard count: DefaultShards until SetShards
// picks one, SetShards(0) restoring the default, and the count clamped to
// the slot-table size.
func TestShardResolution(t *testing.T) {
	e, _ := engine.New(1024)
	plain := mustPlan(t, "SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb", trace.Schema())
	pn, err := e.AddLowLevelPartialAgg("default", plain, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pn.Shards(), engine.DefaultShards(); got != want {
		t.Errorf("default: Shards() = %d, want %d", got, want)
	}
	pn.SetShards(5)
	if got := pn.Shards(); got != 5 {
		t.Errorf("SetShards: Shards() = %d, want 5", got)
	}
	pn.SetShards(0)
	if got, want := pn.Shards(), engine.DefaultShards(); got != want {
		t.Errorf("SetShards(0) restore: Shards() = %d, want %d", got, want)
	}

	tiny := mustPlan(t, "SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb", trace.Schema())
	tn, err := e.AddLowLevelPartialAgg("tiny", tiny, 2)
	if err != nil {
		t.Fatal(err)
	}
	tn.SetShards(64)
	if got := tn.Shards(); got != 2 {
		t.Errorf("clamp: Shards() = %d, want 2 (slot-table size)", got)
	}
}

// TestShardedPacedRun: the paced sharded path (no barrier, drops allowed)
// must complete without deadlock and account every packet as either
// folded or dropped at a shard ring.
func TestShardedPacedRun(t *testing.T) {
	e, _ := engine.New(1024)
	plan := mustPlan(t, "SELECT tb, srcIP, count(*) FROM PKT GROUP BY time/1 as tb, srcIP", trace.Schema())
	pn, err := e.AddLowLevelPartialAgg("paced", plan, 256)
	if err != nil {
		t.Fatal(err)
	}
	pn.SetShards(4)
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 77, Duration: 0.3, Rate: 50000})
	if err := e.RunParallel(feed, 50); err != nil {
		t.Fatal(err)
	}
	if pn.Stats().TuplesIn == 0 {
		t.Error("paced sharded run folded nothing")
	}
	if pn.Stats().TuplesIn > e.Packets() {
		t.Errorf("folded %d of %d packets", pn.Stats().TuplesIn, e.Packets())
	}
}
