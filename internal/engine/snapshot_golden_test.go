package engine_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"streamop/internal/checkpoint"
	"streamop/internal/engine"
	"streamop/internal/overload"
	"streamop/internal/trace"
)

var updateSnapshotGolden = flag.Bool("update-snapshot-golden", false,
	"rewrite testdata/snapshot_golden.json and testdata/session_snapshot_golden.json from this run")

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

// TestSessionSnapshotGolden pins every byte of the session payloads a
// checkpointed session writes (testdata/session_snapshot_golden.json): the
// hand-built sampling pipeline, a standing query under a row quota (its
// tenant gate shedding), and the source gate under shed-sample with its
// admit probability below 1 when the snapshots are taken. The session is
// one goroutine over a finite feed, so the payloads are the same bytes
// from run to run; a layout change shows here before a restore misreads
// it.
func TestSessionSnapshotGolden(t *testing.T) {
	const golden = "testdata/session_snapshot_golden.json"
	dir := t.TempDir()
	e, _ := buildSamplingPipeline(t, 512)
	if err := e.SetOverload(overload.Config{Policy: overload.ShedSample, UpdateEvery: 16, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetCheckpoint(engine.CheckpointConfig{Dir: dir, EveryWindows: 1, Keep: 1000}); err != nil {
		t.Fatal(err)
	}
	h, err := e.Install("quotaed", "SELECT time, len FROM flows",
		engine.InstallOptions{Via: testVia, Seed: 105, Quota: overload.Quota{Rows: 100, BurstSec: 1}})
	if err != nil {
		t.Fatal(err)
	}
	feed, err := trace.NewSteady(trace.SteadyConfig{Seed: 21, Duration: 3, Rate: 12000})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(context.Background(), feed); err != nil {
		t.Fatal(err)
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if q := h.QuotaState(); q.Shed == 0 {
		t.Fatalf("tenant gate shed nothing: %+v", q)
	}
	names, err := checkpoint.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var payloads []map[string]any
	shedding := false
	for _, name := range names {
		payload, err := checkpoint.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		// The payload ends with the source gate: present, then P,
		// SinceUpdate, WinDrops, Offered, Admitted, Shed, ...
		d := checkpoint.NewDecoder(payload[len(payload)-105:])
		present, p := d.Bool(), d.F64()
		d.I64()
		d.U64()
		d.U64()
		d.U64()
		if shed := d.U64(); present && p < 1 && shed > 0 {
			shedding = true
		}
		sum := sha256.Sum256(payload)
		payloads = append(payloads, map[string]any{"len": len(payload), "sha256": hex.EncodeToString(sum[:])})
	}
	if !shedding {
		t.Fatal("no snapshot caught the source gate shedding: the case pins no admission state")
	}
	raw, err := json.MarshalIndent(map[string]any{"session_shed_sample_quota": payloads}, "", "  ")
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
		t.Fatalf("session snapshot record\n%s\ngolden\n%s", raw, want)
	}
}
