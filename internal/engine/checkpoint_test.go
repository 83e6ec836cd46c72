package engine_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streamop/internal/checkpoint"
	"streamop/internal/engine"
	"streamop/internal/gsql"
	"streamop/internal/overload"
	"streamop/internal/sample/quantile"
	"streamop/internal/sfun"
	"streamop/internal/sfunlib"
	"streamop/internal/trace"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// samplingQueries covers every sampling family the operator hosts: the
// kill-and-resume property test proves byte-identical resume over all of
// them at once, in the same engine.
var samplingQueries = []struct{ name, src string }{
	{"ss", `
SELECT tb, uts, UMAX(sum(len), ssthreshold()) AS adjlen
FROM PKT
WHERE ssample(len, 100, 2, 10) = TRUE
GROUP BY time/1 as tb, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`},
	{"rs", `
SELECT tb, srcIP, destIP
FROM PKT
WHERE rsample(uts, 50, 5) = TRUE
GROUP BY time/1 as tb, srcIP, destIP, uts
HAVING rsfinal_clean(uts) = TRUE
CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE
CLEANING BY rsclean_with(uts) = TRUE`},
	{"hh", `
SELECT tb, srcIP, sum(len), count(*)
FROM PKT
GROUP BY time/1 as tb, srcIP
HAVING count(*) >= 50
CLEANING WHEN local_count(500) = TRUE
CLEANING BY count(*) >= current_bucket() - first(current_bucket())`},
	{"ds", `
SELECT tb, HX, count(*), dsscale()
FROM PKT
WHERE dsample(HX, 128) = TRUE
GROUP BY time/1 as tb, H(destIP) as HX
CLEANING WHEN dsdo_clean(count_distinct$(*)) = TRUE
CLEANING BY dskeep(HX) = TRUE`},
	{"ps", `
SELECT tb, uts, srcIP, UMAX(sum(len), pstau()) AS adjlen
FROM PKT
WHERE psample(uts, len, 100) = TRUE
GROUP BY time/1 as tb, srcIP, uts
HAVING pskeep(uts) = TRUE
CLEANING WHEN psdo_clean(count_distinct$(*)) = TRUE
CLEANING BY pskeep(uts) = TRUE`},
}

func fmtRow(row tuple.Tuple) string {
	var b strings.Builder
	for i, v := range row {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(v.String())
	}
	return b.String()
}

// buildSamplingEngine assembles one engine with every sampling family as a
// low-level node. Each node gets its own registry (seeded per node) so
// instance counters never depend on sibling scheduling, which matters for
// the parallel byte-identity runs.
func buildSamplingEngine(t *testing.T) (*engine.Engine, map[string]*[]string) {
	t.Helper()
	e, err := engine.New(4096)
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]*[]string)
	for i, qd := range samplingQueries {
		q, err := gsql.Parse(qd.src)
		if err != nil {
			t.Fatalf("%s: %v", qd.name, err)
		}
		plan, err := gsql.Analyze(q, trace.Schema(), sfunlib.Default(uint64(100+i)))
		if err != nil {
			t.Fatalf("%s: %v", qd.name, err)
		}
		n, err := e.AddLowLevel(qd.name, plan)
		if err != nil {
			t.Fatal(err)
		}
		sink := &[]string{}
		rows[qd.name] = sink
		n.Subscribe(func(row tuple.Tuple) error {
			*sink = append(*sink, fmtRow(row))
			return nil
		})
	}
	return e, rows
}

// buildTwoLevelEngine assembles a selection feeding an aggregate: the
// smallest topology with an edge between two nodes, whose in-flight
// batches a RunParallel snapshot must wait out.
func buildTwoLevelEngine(t *testing.T) (*engine.Engine, map[string]*[]string) {
	t.Helper()
	e, err := engine.New(1024)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := e.AddLowLevel("sel", mustPlan(t, "SELECT time, srcIP, len, uts FROM PKT", trace.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := e.AddHighLevel("agg", sel, mustPlan(t, "SELECT tb, count(*), sum(len) FROM sel GROUP BY time/1 as tb", sel.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]*[]string)
	for _, n := range []*engine.Node{sel, agg} {
		sink := &[]string{}
		rows[n.Stats().Name] = sink
		n.Subscribe(func(row tuple.Tuple) error {
			*sink = append(*sink, fmtRow(row))
			return nil
		})
	}
	return e, rows
}

func steadyFeed(t *testing.T) trace.Feed {
	t.Helper()
	feed, err := trace.NewSteady(trace.SteadyConfig{Seed: 11, Duration: 4, Rate: 10000})
	if err != nil {
		t.Fatal(err)
	}
	return feed
}

// cancelAt cancels a context as a side effect of the feed reaching packet
// `at`, so interruption lands mid-stream deterministically enough to leave
// work both before and after the snapshot.
type cancelAt struct {
	inner  trace.Feed
	n, at  int64
	cancel context.CancelFunc
}

func (c *cancelAt) Next() (trace.Packet, bool) {
	c.n++
	if c.n == c.at {
		c.cancel()
	}
	return c.inner.Next()
}

// spliceCompare checks the kill-and-resume contract for one node: the rows
// the interrupted run emitted up to the snapshot's TuplesOut, followed by
// everything the resumed run emitted, must equal the uninterrupted
// reference byte for byte.
func spliceCompare(t *testing.T, name string, ref, partA, partB []string, tuplesOut int64) {
	t.Helper()
	if int64(len(partA)) < tuplesOut {
		t.Fatalf("%s: interrupted run emitted %d rows, snapshot claims %d", name, len(partA), tuplesOut)
	}
	got := append(append([]string{}, partA[:tuplesOut]...), partB...)
	if len(got) != len(ref) {
		t.Fatalf("%s: spliced %d rows, reference has %d", name, len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("%s: row %d diverged:\n  resumed:   %s\n  reference: %s", name, i, got[i], ref[i])
		}
	}
	if len(ref) == 0 {
		t.Fatalf("%s: reference produced no rows; test has no power", name)
	}
}

func tuplesOutOf(t *testing.T, info *engine.RestoreInfo, name string) int64 {
	t.Helper()
	for _, n := range info.Nodes {
		if n.Name == name {
			return n.TuplesOut
		}
	}
	t.Fatalf("node %q missing from RestoreInfo", name)
	return 0
}

// runKillAndResume is the shared property-test body: reference run,
// interrupted run (cancelled mid-stream, snapshot written), resumed run
// from the newest snapshot, then the splice comparison per node. The
// faults spec, when non-empty, wraps every run's feed identically to prove
// the injector RNG replays across the resume.
func runKillAndResume(t *testing.T, build func(*testing.T) (*engine.Engine, map[string]*[]string), parallel bool, faultSpec string, corruptNewest bool) {
	dir := t.TempDir()

	run := func(e *engine.Engine, feed trace.Feed) error {
		if faultSpec != "" {
			f, err := overload.ParseFaults(faultSpec, 77)
			if err != nil {
				t.Fatal(err)
			}
			e.SetFaults(f)
		}
		if parallel {
			return e.RunParallelContext(context.Background(), feed, 0)
		}
		return e.RunContext(context.Background(), feed)
	}

	// Uninterrupted reference.
	eRef, refRows := build(t)
	if err := run(eRef, steadyFeed(t)); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: checkpoint every window, cancel mid-stream.
	eA, rowsA := build(t)
	if err := eA.SetCheckpoint(engine.CheckpointConfig{Dir: dir, EveryWindows: 1, Keep: 10}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	feedA := &cancelAt{inner: steadyFeed(t), at: 23000, cancel: cancel}
	if faultSpec != "" {
		f, err := overload.ParseFaults(faultSpec, 77)
		if err != nil {
			t.Fatal(err)
		}
		eA.SetFaults(f)
	}
	var err error
	if parallel {
		err = eA.RunParallelContext(ctx, feedA, 0)
	} else {
		err = eA.RunContext(ctx, feedA)
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: %v", err)
	}

	names, err := checkpoint.List(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("no snapshots written (err %v)", err)
	}
	if corruptNewest {
		if len(names) < 2 {
			t.Fatalf("need at least 2 snapshots to test fallback, have %d", len(names))
		}
		path := filepath.Join(dir, names[len(names)-1])
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0xff
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Resumed run on a freshly built, identical engine.
	eB, rowsB := build(t)
	if err := eB.SetCheckpoint(engine.CheckpointConfig{Dir: dir, EveryWindows: 1, Keep: 10}); err != nil {
		t.Fatal(err)
	}
	info, err := eB.Restore()
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if corruptNewest {
		wantSeq, _ := checkpoint.SeqFromName(names[len(names)-2])
		if info.Seq != wantSeq {
			t.Fatalf("restore picked seq %d, want fallback to %d", info.Seq, wantSeq)
		}
	}
	if err := run(eB, steadyFeed(t)); err != nil {
		t.Fatal(err)
	}

	for name, ref := range refRows {
		spliceCompare(t, name, *ref, *rowsA[name], *rowsB[name], tuplesOutOf(t, info, name))
	}
}

// TestKillAndResumeSerial: interrupt a serial run over every sampling
// family mid-stream, restore the snapshot into a fresh engine, and demand
// the spliced output be byte-identical to an uninterrupted run.
func TestKillAndResumeSerial(t *testing.T) {
	runKillAndResume(t, buildSamplingEngine, false, "", false)
}

// TestKillAndResumeSerialWithFaults repeats the property with drop and
// burst injectors active: the fault RNG state replays over the skipped
// prefix, so the resumed run sees the identical post-fault stream.
func TestKillAndResumeSerialWithFaults(t *testing.T) {
	runKillAndResume(t, buildSamplingEngine, false, "drop:0.05,burst:128@0.5", false)
}

// TestKillAndResumeParallel proves the same byte-identity when every node
// runs on its own worker goroutine (unpaced RunParallel, quiesced
// snapshots): over the sampling families side by side, and over a
// two-level topology, where a snapshot also waits for the batches on the
// edge between the nodes.
func TestKillAndResumeParallel(t *testing.T) {
	runKillAndResume(t, buildSamplingEngine, true, "", false)
	runKillAndResume(t, buildTwoLevelEngine, true, "", false)
}

// TestKillAndResumePartialAgg holds a partial-aggregation node to the
// serial kill-and-resume contract: a 256-slot table (collision evictions
// before and after the snapshot) under a high-level re-aggregation splices
// byte-identically on both nodes, and the resumed node's Evictions() ends
// where the uninterrupted run's does.
func TestKillAndResumePartialAgg(t *testing.T) {
	var built []*engine.PartialNode // reference, interrupted, resumed
	build := func(t *testing.T) (*engine.Engine, map[string]*[]string) {
		t.Helper()
		e, err := engine.New(4096)
		if err != nil {
			t.Fatal(err)
		}
		pn, err := e.AddLowLevelPartialAgg("partial", mustPlan(t,
			"SELECT tb, srcIP, sum(len) AS bytes, count(*) AS pkts, min(len) AS small FROM PKT GROUP BY time/1 as tb, srcIP",
			trace.Schema()), 256)
		if err != nil {
			t.Fatal(err)
		}
		final, err := e.AddHighLevel("final", pn.Base(), mustPlan(t,
			"SELECT tb2, srcIP, sum(bytes), sum(pkts), min(small) FROM partial GROUP BY tb/1 as tb2, srcIP", pn.Schema()))
		if err != nil {
			t.Fatal(err)
		}
		built = append(built, pn)
		rows := make(map[string]*[]string)
		for _, n := range []*engine.Node{pn.Base(), final} {
			sink := &[]string{}
			rows[n.Stats().Name] = sink
			n.Subscribe(func(row tuple.Tuple) error {
				*sink = append(*sink, fmtRow(row))
				return nil
			})
		}
		return e, rows
	}
	runKillAndResume(t, build, false, "", false)
	ref, interrupted, resumed := built[0], built[1], built[2]
	if interrupted.Evictions() == 0 || interrupted.Evictions() >= ref.Evictions() {
		t.Fatalf("interrupted run evicted %d of the reference's %d; want some on each side of the snapshot", interrupted.Evictions(), ref.Evictions())
	}
	if resumed.Evictions() != ref.Evictions() {
		t.Errorf("resumed run ends at %d evictions, uninterrupted run at %d", resumed.Evictions(), ref.Evictions())
	}
}

// TestPartialAggSnapshotRejectsUDAF: a user-defined aggregate has no codec
// in a partial-aggregation table either, and fails the snapshot with the
// error an operator node gives.
func TestPartialAggSnapshotRejectsUDAF(t *testing.T) {
	reg := sfunlib.Default(1)
	if err := quantile.RegisterUDAF(reg); err != nil {
		t.Fatal(err)
	}
	q, err := gsql.Parse(`SELECT tb, srcIP, quantile(len, 0.5, 0.01) FROM PKT GROUP BY time/1 as tb, srcIP`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gsql.Analyze(q, trace.Schema(), reg)
	if err != nil {
		t.Fatal(err)
	}
	errs := map[string]error{}
	for _, kind := range []string{"operator", "partial"} {
		e, _ := engine.New(1024)
		if kind == "partial" {
			_, err = e.AddLowLevelPartialAgg("q", plan, 64)
		} else {
			_, err = e.AddLowLevel("q", plan)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetCheckpoint(engine.CheckpointConfig{Dir: t.TempDir(), EveryWindows: 1}); err != nil {
			t.Fatal(err)
		}
		errs[kind] = e.Run(steadyFeed(t))
	}
	for kind, err := range errs {
		if err == nil || !strings.Contains(err.Error(), `node "q"`) || !strings.Contains(err.Error(), "is not checkpointable") {
			t.Errorf("%s node: snapshot of a UDAF plan: %v, want the no-codec error", kind, err)
		}
	}
}

// TestRestoreFallsBackPastCorruptSnapshot corrupts the newest snapshot
// after the interrupted run: Restore must fall back to the previous
// valid file and the resume must still splice byte-identically (just from
// an earlier point).
func TestRestoreFallsBackPastCorruptSnapshot(t *testing.T) {
	runKillAndResume(t, buildSamplingEngine, false, "", true)
}

func TestRestoreRejectsForeignTopology(t *testing.T) {
	dir := t.TempDir()
	eA, _ := buildSamplingEngine(t)
	if err := eA.SetCheckpoint(engine.CheckpointConfig{Dir: dir, EveryWindows: 1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := eA.RunContext(ctx, &cancelAt{inner: steadyFeed(t), at: 20000, cancel: cancel}); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}

	eB, err := engine.New(1024)
	if err != nil {
		t.Fatal(err)
	}
	plan := mustPlan(t, "SELECT uts, len FROM PKT", trace.Schema())
	if _, err := eB.AddLowLevel("other", plan); err != nil {
		t.Fatal(err)
	}
	if err := eB.SetCheckpoint(engine.CheckpointConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := eB.Restore(); err == nil || !strings.Contains(err.Error(), "topology") {
		t.Fatalf("foreign topology accepted: %v", err)
	}
}

func TestRestoreNoSnapshot(t *testing.T) {
	e, _ := buildSamplingEngine(t)
	if err := e.SetCheckpoint(engine.CheckpointConfig{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Restore(); !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint, got %v", err)
	}
}

func TestCheckpointModeRestrictions(t *testing.T) {
	// Paced parallel mode sheds nondeterministically: refused.
	e, _ := buildSamplingEngine(t)
	if err := e.SetCheckpoint(engine.CheckpointConfig{Dir: t.TempDir(), EveryWindows: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunParallel(steadyFeed(t), 1.0); err == nil || !strings.Contains(err.Error(), "unpaced") {
		t.Fatalf("paced parallel checkpointing accepted: %v", err)
	}

	// A partial-aggregation node checkpoints under Run and in a session
	// (TestKillAndResumePartialAgg); what RunParallel stripes across shard
	// replicas is not in the payload yet: refused there, and only there.
	e, _ = engine.New(1024)
	plan := mustPlan(t, "SELECT tb, srcIP, count(*) FROM PKT GROUP BY time/1 as tb, srcIP", trace.Schema())
	if _, err := e.AddLowLevelPartialAgg("p", plan, 64); err != nil {
		t.Fatal(err)
	}
	if err := e.SetCheckpoint(engine.CheckpointConfig{Dir: t.TempDir(), EveryWindows: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunParallel(steadyFeed(t), 0); err == nil || !strings.Contains(err.Error(), "partial-aggregation") {
		t.Fatalf("sharded checkpointing accepted: %v", err)
	}
	if err := e.Run(steadyFeed(t)); err != nil {
		t.Fatalf("serial checkpointing of a partial-aggregation node refused: %v", err)
	}
	if err := e.Start(context.Background(), steadyFeed(t)); err != nil {
		t.Fatalf("a session over a partial-aggregation node refused checkpointing: %v", err)
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}

	if err := e.SetCheckpoint(engine.CheckpointConfig{}); err == nil {
		t.Fatal("empty checkpoint dir accepted")
	}
}

// boomRegistry returns a registry whose boom(x) function panics once x
// exceeds limit — the injected operator fault for the containment tests.
func boomRegistry(t *testing.T, limit uint64) *sfun.Registry {
	t.Helper()
	reg := sfunlib.Default(1)
	if err := reg.RegisterFunc(&sfun.Func{
		Name: "boom",
		Call: func(_ any, args []value.Value) (value.Value, error) {
			if len(args) > 0 && args[0].Uint() > limit {
				panic(fmt.Sprintf("injected operator panic at uts %d", args[0].Uint()))
			}
			return value.NewBool(true), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// buildBoomEngine: one node destined to panic mid-stream plus one healthy
// sibling, so containment ("fail the query, not the engine") is observable.
func buildBoomEngine(t *testing.T, limit uint64) (*engine.Engine, *[]string, *[]string) {
	t.Helper()
	e, err := engine.New(4096)
	if err != nil {
		t.Fatal(err)
	}
	bq, err := gsql.Parse(`SELECT uts, srcIP, len FROM PKT WHERE boom(uts) = TRUE`)
	if err != nil {
		t.Fatal(err)
	}
	bplan, err := gsql.Analyze(bq, trace.Schema(), boomRegistry(t, limit))
	if err != nil {
		t.Fatal(err)
	}
	bn, err := e.AddLowLevel("doomed", bplan)
	if err != nil {
		t.Fatal(err)
	}
	boomRows := &[]string{}
	bn.Subscribe(func(row tuple.Tuple) error {
		*boomRows = append(*boomRows, fmtRow(row))
		return nil
	})

	hq, err := gsql.Parse(samplingQueries[1].src) // reservoir
	if err != nil {
		t.Fatal(err)
	}
	hplan, err := gsql.Analyze(hq, trace.Schema(), sfunlib.Default(101))
	if err != nil {
		t.Fatal(err)
	}
	hn, err := e.AddLowLevel("healthy", hplan)
	if err != nil {
		t.Fatal(err)
	}
	healthyRows := &[]string{}
	hn.Subscribe(func(row tuple.Tuple) error {
		*healthyRows = append(*healthyRows, fmtRow(row))
		return nil
	})
	return e, boomRows, healthyRows
}

// healthyReference runs the reservoir sibling alone and returns its rows —
// what the sibling must still produce when its neighbor panics.
func healthyReference(t *testing.T) []string {
	t.Helper()
	e, err := engine.New(4096)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := gsql.Parse(samplingQueries[1].src)
	plan, err := gsql.Analyze(q, trace.Schema(), sfunlib.Default(101))
	if err != nil {
		t.Fatal(err)
	}
	n, err := e.AddLowLevel("healthy", plan)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	n.Subscribe(func(row tuple.Tuple) error {
		rows = append(rows, fmtRow(row))
		return nil
	})
	if err := e.Run(steadyFeed(t)); err != nil {
		t.Fatal(err)
	}
	return rows
}

func checkContainment(t *testing.T, e *engine.Engine, err error, boomRows, healthyRows, wantHealthy []string) {
	t.Helper()
	if err != nil {
		t.Fatalf("engine run died with the query: %v", err)
	}
	failures := e.Failures()
	if len(failures) != 1 {
		t.Fatalf("Failures() = %d entries, want 1 (%+v)", len(failures), failures)
	}
	f := failures[0]
	if f.Node != "doomed" || !strings.Contains(f.Msg, "injected operator panic") {
		t.Fatalf("unexpected failure record: %+v", f)
	}
	if f.Stack == "" {
		t.Fatal("failure record has no stack trace")
	}
	if len(boomRows) == 0 {
		t.Fatal("doomed node produced nothing before the panic; injection too early")
	}
	if len(healthyRows) != len(wantHealthy) {
		t.Fatalf("sibling produced %d rows, solo reference %d", len(healthyRows), len(wantHealthy))
	}
	for i := range wantHealthy {
		if healthyRows[i] != wantHealthy[i] {
			t.Fatalf("sibling row %d diverged from solo run", i)
		}
	}
}

// TestPanicContainmentSerial: an operator panic fails only its query — the
// engine finishes, records the failure with a stack, and the sibling's
// output is untouched down to the byte.
func TestPanicContainmentSerial(t *testing.T) {
	want := healthyReference(t)
	e, boomRows, healthyRows := buildBoomEngine(t, 2_000_000_000)
	err := e.Run(steadyFeed(t))
	checkContainment(t, e, err, *boomRows, *healthyRows, want)
}

// TestPanicContainmentParallel: same containment with per-node worker
// goroutines — the dead worker drains its ring so the producer never
// stalls, and the sibling still matches its solo run.
func TestPanicContainmentParallel(t *testing.T) {
	want := healthyReference(t)
	e, boomRows, healthyRows := buildBoomEngine(t, 2_000_000_000)
	err := e.RunParallel(steadyFeed(t), 0)
	checkContainment(t, e, err, *boomRows, *healthyRows, want)
}

// TestPartialPanicContainedInEveryMode: a panic in a partial-aggregation
// node's aggregate argument is contained the way any node's is, by the
// serial loop and by the shard replicas' workers alike — the run returns
// nil, the node is recorded failed once (not once per replica), the
// replicas drain so neither the window barrier nor the paced gates stall,
// and the selection sibling's rows match its solo run.
func TestPartialPanicContainedInEveryMode(t *testing.T) {
	build := func(withPartial bool) (*engine.Engine, *engine.PartialNode, *[]string) {
		e, err := engine.New(4096)
		if err != nil {
			t.Fatal(err)
		}
		var pn *engine.PartialNode
		if withPartial {
			q, err := gsql.Parse(`SELECT tb, srcIP, sum(len), max(boom(uts)) FROM PKT GROUP BY time/1 as tb, srcIP`)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := gsql.Analyze(q, trace.Schema(), boomRegistry(t, 2_000_000_000))
			if err != nil {
				t.Fatal(err)
			}
			if pn, err = e.AddLowLevelPartialAgg("doomed", plan, 1024); err != nil {
				t.Fatal(err)
			}
			pn.SetShards(2)
		}
		sel, err := e.AddLowLevel("healthy", mustPlan(t, "SELECT time, srcIP, len FROM PKT WHERE len > 600", trace.Schema()))
		if err != nil {
			t.Fatal(err)
		}
		rows := &[]string{}
		sel.Subscribe(func(row tuple.Tuple) error {
			*rows = append(*rows, fmtRow(row))
			return nil
		})
		return e, pn, rows
	}
	ref, _, want := build(false)
	if err := ref.Run(steadyFeed(t)); err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name string
		run  func(e *engine.Engine) error
	}{
		{"run", func(e *engine.Engine) error { return e.Run(steadyFeed(t)) }},
		{"parallel", func(e *engine.Engine) error { return e.RunParallel(steadyFeed(t), 0) }},
		{"paced", func(e *engine.Engine) error {
			// Block with a generous timeout: the sibling must lose nothing
			// for its rows to be comparable, and a dead replica that stopped
			// popping would show up as a timed-out drop.
			if err := e.SetOverload(overload.Config{Policy: overload.Block, BlockTimeout: 10 * time.Second}); err != nil {
				t.Fatal(err)
			}
			return e.RunParallel(steadyFeed(t), 40)
		}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			e, pn, rows := build(true)
			var emitted atomic.Int64
			pn.Subscribe(func(tuple.Tuple) error {
				emitted.Add(1)
				return nil
			})
			if err := m.run(e); err != nil {
				t.Fatalf("run died with the query: %v", err)
			}
			failures := e.Failures()
			if len(failures) != 1 {
				t.Fatalf("Failures() = %d entries, want 1 (%+v)", len(failures), failures)
			}
			if f := failures[0]; f.Node != "doomed" || !strings.Contains(f.Msg, "injected operator panic") || f.Stack == "" {
				t.Fatalf("unexpected failure record: %+v", f)
			}
			if emitted.Load() == 0 {
				t.Error("doomed node emitted nothing before the panic; injection too early")
			}
			if st := pn.Stats(); st.TuplesIn == 0 || st.TuplesIn >= e.Packets() || st.TuplesOut != emitted.Load() {
				t.Errorf("Stats() = %d in, %d out; want 0 < in < %d packets and out = %d rows seen", st.TuplesIn, st.TuplesOut, e.Packets(), emitted.Load())
			}
			if d := e.Drops(); d != 0 {
				t.Errorf("%d packets dropped", d)
			}
			for _, snap := range e.Overload() {
				if snap.Dropped != 0 {
					t.Errorf("gate %s/%s dropped %d packets: a dead worker stopped draining", snap.Node, snap.Ring, snap.Dropped)
				}
			}
			if len(*rows) != len(*want) {
				t.Fatalf("sibling produced %d rows, solo reference %d", len(*rows), len(*want))
			}
			for i := range *want {
				if (*rows)[i] != (*want)[i] {
					t.Fatalf("sibling row %d diverged from solo run", i)
				}
			}
		})
	}
}

// TestPanicDuringFlushContained: a panic raised while flushing the final
// window (not mid-stream) must also be contained.
func TestPanicDuringFlushContained(t *testing.T) {
	// boom trips only above the last uts the 4s/10k feed produces, so the
	// WHERE clause is clean during the run; the panic comes from the
	// CLEANING/flush path of a grouped query instead.
	e, err := engine.New(4096)
	if err != nil {
		t.Fatal(err)
	}
	reg := sfunlib.Default(1)
	calls := 0
	if err := reg.RegisterFunc(&sfun.Func{
		Name: "flushboom",
		Call: func(_ any, args []value.Value) (value.Value, error) {
			calls++
			if calls > 2 {
				panic("injected flush panic")
			}
			return value.NewBool(true), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	q, err := gsql.Parse(`
SELECT tb, srcIP, count(*)
FROM PKT
GROUP BY time/10 as tb, srcIP
HAVING flushboom(count(*)) = TRUE`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gsql.Analyze(q, trace.Schema(), reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddLowLevel("flushdoomed", plan); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(steadyFeed(t)); err != nil {
		t.Fatalf("flush panic escaped: %v", err)
	}
	if f := e.Failures(); len(f) != 1 || f[0].Node != "flushdoomed" {
		t.Fatalf("Failures() = %+v", f)
	}
}

// TestFailedNodeSurvivesCheckpointRestore: a snapshot taken after a panic
// stores the failure marker instead of untrusted operator state; the
// restored engine re-marks the node failed and the healthy sibling still
// resumes byte-exactly.
func TestFailedNodeSurvivesCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	want := healthyReference(t)

	eA, _, rowsA := buildBoomEngine(t, 2_000_000_000)
	if err := eA.SetCheckpoint(engine.CheckpointConfig{Dir: dir, EveryWindows: 1, Keep: 10}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := eA.RunContext(ctx, &cancelAt{inner: steadyFeed(t), at: 23000, cancel: cancel})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	if len(eA.Failures()) != 1 {
		t.Fatalf("setup: doomed node did not fail (%+v)", eA.Failures())
	}

	eB, rowsBoomB, rowsB := buildBoomEngine(t, 2_000_000_000)
	if err := eB.SetCheckpoint(engine.CheckpointConfig{Dir: dir, EveryWindows: 1, Keep: 10}); err != nil {
		t.Fatal(err)
	}
	info, err := eB.Restore()
	if err != nil {
		t.Fatal(err)
	}
	var doomed *engine.RestoredNode
	for i := range info.Nodes {
		if info.Nodes[i].Name == "doomed" {
			doomed = &info.Nodes[i]
		}
	}
	if doomed == nil || !doomed.Failed || !strings.Contains(doomed.FailMsg, "injected operator panic") {
		t.Fatalf("restored doomed node = %+v", doomed)
	}
	if len(eB.Failures()) != 1 {
		t.Fatalf("restore did not re-record the failure: %+v", eB.Failures())
	}
	if err := eB.Run(steadyFeed(t)); err != nil {
		t.Fatal(err)
	}
	if len(*rowsBoomB) != 0 {
		t.Fatalf("failed node emitted %d rows after restore", len(*rowsBoomB))
	}
	spliceCompare(t, "healthy", want, *rowsA, *rowsB, tuplesOutOf(t, info, "healthy"))
}
