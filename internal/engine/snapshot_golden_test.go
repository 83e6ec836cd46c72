package engine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var updateSnapshotGolden = flag.Bool("update-snapshot-golden", false,
	"rewrite testdata/snapshot_golden.json from this run")

// TestPartialSnapshotGolden pins the bytes a partial-aggregation table's
// snapshot holds, for a plan using every built-in aggregate, against
// testdata/snapshot_golden.json: a snapshot one build wrote is what the
// next restores, so the layout may not drift. The table is cut mid-window
// with residents left by collision evictions; the reference fold must
// write the same bytes (checkFold).
func TestPartialSnapshotGolden(t *testing.T) {
	const (
		golden = "testdata/snapshot_golden.json"
		src    = `SELECT tb, srcIP, count(*), sum(len), min(len), max(len), avg(len), first(len), last(len),
	var(len), stddev(len), sum(len/3.0), min(proto), last(proto) FROM PKT GROUP BY time/1 as tb, srcIP`
	)
	pkts := foldPackets(3000, 11, 40, 9, -1)[:1700]
	res := checkFold(t, src, 64, pkts, []int{64})
	if res.evictions == 0 {
		t.Fatal("no collision eviction before the cut: the case does not bite")
	}
	sum := sha256.Sum256(res.snap)
	got := map[string]any{"partial_builtin_aggregates": map[string]any{"len": len(res.snap), "sha256": hex.EncodeToString(sum[:])}}
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	if *updateSnapshotGolden {
		if err := os.WriteFile(golden, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(raw) {
		t.Fatalf("snapshot record\n%s\ngolden\n%s", raw, want)
	}
}
