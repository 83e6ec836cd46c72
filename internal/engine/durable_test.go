package engine_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streamop/internal/checkpoint"
	"streamop/internal/engine"
	"streamop/internal/overload"
	"streamop/internal/trace"
)

// Durable-session property tests: a standing-query session snapshotted at
// pump boundaries must survive kill-and-restart — the restored engine
// re-installs every query from the persisted registry, restores the
// hand-built nodes it was rebuilt with, and resumes bit-identically from
// the newest valid snapshot.

// durableQueries is the standing-query mix the kill-and-resume tests
// install: two PKT-direct sampling queries (own low-level nodes), two
// aggregates sharing one tap (the first creates it via Via, the second
// reuses it by FROM name), and one selection under a row quota. The
// quota'd query is excluded from the byte-identity splice — its admission
// clock is stream time at delivery, which depends on ring fill batching —
// but its gate accounting must stay exact across the resume.
var durableQueries = []struct {
	name   string
	src    string
	opts   engine.InstallOptions
	splice bool
}{
	{"ssq", samplingQueries[0].src, engine.InstallOptions{Seed: 101, Buffer: 1 << 15}, true},
	{"hhq", samplingQueries[2].src, engine.InstallOptions{Seed: 102, Buffer: 1 << 15}, true},
	{"flowsum", "SELECT tb, srcIP, sum(len), count(*) FROM flows GROUP BY time/1 as tb, srcIP",
		engine.InstallOptions{Via: testVia, Seed: 103, Buffer: 1 << 16}, true},
	{"flowtotal", "SELECT tb, count(*) FROM flows GROUP BY time/1 as tb",
		engine.InstallOptions{Seed: 104, Buffer: 1 << 15}, true},
	{"quotaed", "SELECT time, len FROM flows",
		engine.InstallOptions{Seed: 105, Buffer: 1 << 14,
			Quota: overload.Quota{Rows: 500, BurstSec: 1}}, false},
}

// installDurable installs the full durableQueries mix on an idle engine
// and subscribes once per query.
func installDurable(t *testing.T, e *engine.Engine) map[string]*engine.Subscription {
	t.Helper()
	subs := make(map[string]*engine.Subscription)
	for _, qd := range durableQueries {
		h, err := e.Install(qd.name, qd.src, qd.opts)
		if err != nil {
			t.Fatalf("install %s: %v", qd.name, err)
		}
		subs[qd.name] = h.Subscribe()
	}
	return subs
}

// drainSub consumes a subscription to end-of-stream (the session must
// already be over, so the channel is closed) and formats every row.
func drainSub(t *testing.T, name string, sub *engine.Subscription) []string {
	t.Helper()
	var out []string
	timeout := time.After(10 * time.Second)
	for {
		select {
		case row, ok := <-sub.C():
			if !ok {
				return out
			}
			out = append(out, fmtRow(row))
		case <-timeout:
			t.Fatalf("%s: subscription never closed (have %d rows)", name, len(out))
		}
	}
}

// runSessionToEnd starts a session over feed (optionally fault-injected)
// and waits it out, tolerating only context.Canceled.
func runSessionToEnd(t *testing.T, e *engine.Engine, ctx context.Context, feed trace.Feed, faultSpec string) {
	t.Helper()
	if faultSpec != "" {
		f, err := overload.ParseFaults(faultSpec, 77)
		if err != nil {
			t.Fatal(err)
		}
		e.SetFaults(f)
	}
	if err := e.Start(ctx, feed); err != nil {
		t.Fatal(err)
	}
	if err := e.Wait(); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
}

// emptyEngine is the topology a daemon restarts with: nothing built by
// hand, everything recovered from the snapshot's registry.
func emptyEngine(t *testing.T) (*engine.Engine, map[string]*[]string) {
	t.Helper()
	e, err := engine.New(4096)
	if err != nil {
		t.Fatal(err)
	}
	return e, nil
}

func TestSessionKillAndResume(t *testing.T) {
	runSessionKillAndResume(t, emptyEngine, "", false)
}

// TestDurableSessionKeepsHandBuiltNodes: a session over nodes added with
// AddLowLevel next to installed queries snapshots both, and a restore into
// the topology rebuilt by hand splices every node's output — hand-built and
// installed — byte-identically.
func TestDurableSessionKeepsHandBuiltNodes(t *testing.T) {
	runSessionKillAndResume(t, buildSamplingEngine, "", false)
}

func TestSessionKillAndResumeUnderFaults(t *testing.T) {
	// The injector RNG is seeded, so the resumed run's wrapped feed
	// replays the same drops and bursts the crashed run saw.
	runSessionKillAndResume(t, emptyEngine, "drop:0.01,burst:64@0.5", false)
}

func TestSessionKillAndResumeCorruptNewest(t *testing.T) {
	runSessionKillAndResume(t, emptyEngine, "", true)
}

// runSessionKillAndResume is the shared body: an uninterrupted reference
// session, a crashed session (checkpointing, cancelled mid-stream), and a
// resumed session restored from the newest valid snapshot; the splice of
// crashed+resumed output must equal the reference byte for byte. build
// makes each engine with its hand-built nodes (and their row sinks) before
// the durableQueries mix is installed on it.
func runSessionKillAndResume(t *testing.T, build func(*testing.T) (*engine.Engine, map[string]*[]string), faultSpec string, corruptNewest bool) {
	dir := t.TempDir()

	// Uninterrupted reference session.
	eRef, refHand := build(t)
	refSubs := installDurable(t, eRef)
	runSessionToEnd(t, eRef, context.Background(), steadyFeed(t), faultSpec)
	refRows := make(map[string][]string)
	for name, sub := range refSubs {
		refRows[name] = drainSub(t, name, sub)
		if d := sub.Dropped(); d != 0 {
			t.Fatalf("reference %s dropped %d rows; grow the buffer", name, d)
		}
	}

	// Crashed session: snapshot every window, cancel mid-stream.
	eA, handA := build(t)
	if err := eA.SetCheckpoint(engine.CheckpointConfig{Dir: dir, EveryWindows: 1, Keep: 10}); err != nil {
		t.Fatal(err)
	}
	subsA := installDurable(t, eA)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runSessionToEnd(t, eA, ctx, &cancelAt{inner: steadyFeed(t), at: 23000, cancel: cancel}, faultSpec)
	rowsA := make(map[string][]string)
	for name, sub := range subsA {
		rowsA[name] = drainSub(t, name, sub)
		if d := sub.Dropped(); d != 0 {
			t.Fatalf("crashed %s dropped %d rows; grow the buffer", name, d)
		}
	}

	names, err := checkpoint.List(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("no session snapshots written (err %v)", err)
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

	// Resumed session: the hand-built nodes are rebuilt, the whole registry
	// is recovered from the snapshot — no Install calls here.
	eB, handB := build(t)
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
	if len(info.Queries) != len(durableQueries) {
		t.Fatalf("restored %d queries %v, want %d", len(info.Queries), info.Queries, len(durableQueries))
	}
	for i, qd := range durableQueries {
		if info.Queries[i] != qd.name {
			t.Fatalf("restored query %d = %q, want %q (install order must persist)", i, info.Queries[i], qd.name)
		}
	}
	if len(info.Taps) != 1 || info.Taps[0] != "flows" {
		t.Fatalf("restored taps %v, want [flows]", info.Taps)
	}

	cut := make(map[string]int64)
	subsB := make(map[string]*engine.Subscription)
	for _, qd := range durableQueries {
		h := eB.Lookup(qd.name)
		if h == nil {
			t.Fatalf("restored engine has no handle for %s", qd.name)
		}
		cut[qd.name] = h.RowsOut()
		subsB[qd.name] = h.Subscribe()
	}
	runSessionToEnd(t, eB, context.Background(), steadyFeed(t), faultSpec)

	for _, qd := range durableQueries {
		rowsB := drainSub(t, qd.name, subsB[qd.name])
		if !qd.splice {
			continue
		}
		spliceCompare(t, qd.name, refRows[qd.name], rowsA[qd.name], rowsB, cut[qd.name])
		if got := tuplesOutOf(t, info, qd.name); got < cut[qd.name] {
			t.Fatalf("%s: RestoreInfo says %d rows out, the handle delivered %d", qd.name, got, cut[qd.name])
		}
	}
	for name, ref := range refHand {
		spliceCompare(t, name, *ref, *handA[name], *handB[name], tuplesOutOf(t, info, name))
	}

	// The quota'd tenant's accounting must be exact across the resume:
	// every offered row was either admitted or shed, rowsOut counts only
	// admitted rows, and the budget actually bit.
	qh := eB.Lookup("quotaed")
	snap := qh.QuotaState()
	if snap.Offered != snap.Admitted+snap.Shed {
		t.Fatalf("quota accounting leaked: offered %d != admitted %d + shed %d",
			snap.Offered, snap.Admitted, snap.Shed)
	}
	if snap.Shed == 0 {
		t.Fatal("quota'd query shed nothing; the budget never engaged and the test has no power")
	}
	if got := qh.RowsOut(); got != int64(snap.Admitted) {
		t.Fatalf("quota'd rowsOut %d != admitted %d", got, snap.Admitted)
	}
}

// TestSessionRepeatedKillAndResume chains two crashes: kill at 15k
// packets, resume and kill again at 30k, then resume to completion. The
// three-way splice must still equal the uninterrupted reference.
func TestSessionRepeatedKillAndResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := engine.CheckpointConfig{Dir: dir, EveryWindows: 1, Keep: 10}

	eRef, err := engine.New(4096)
	if err != nil {
		t.Fatal(err)
	}
	refSubs := installDurable(t, eRef)
	runSessionToEnd(t, eRef, context.Background(), steadyFeed(t), "")
	refRows := make(map[string][]string)
	for name, sub := range refSubs {
		refRows[name] = drainSub(t, name, sub)
	}

	// Crash 1: fresh engine, installed by hand.
	e1, err := engine.New(4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.SetCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	subs1 := installDurable(t, e1)
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	runSessionToEnd(t, e1, ctx1, &cancelAt{inner: steadyFeed(t), at: 15000, cancel: cancel1}, "")
	parts := map[string][][]string{}
	for name, sub := range subs1 {
		parts[name] = append(parts[name], drainSub(t, name, sub))
	}

	// Crash 2 and the final leg both recover purely from snapshots.
	cuts := make(map[string][]int64)
	for leg := 0; leg < 2; leg++ {
		e, err := engine.New(4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetCheckpoint(ckpt); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Restore(); err != nil {
			t.Fatalf("leg %d Restore: %v", leg, err)
		}
		subs := make(map[string]*engine.Subscription)
		for _, qd := range durableQueries {
			h := e.Lookup(qd.name)
			cuts[qd.name] = append(cuts[qd.name], h.RowsOut())
			subs[qd.name] = h.Subscribe()
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		feed := trace.Feed(steadyFeed(t))
		if leg == 0 {
			feed = &cancelAt{inner: feed, at: 30000, cancel: cancel}
		}
		runSessionToEnd(t, e, ctx, feed, "")
		for name, sub := range subs {
			parts[name] = append(parts[name], drainSub(t, name, sub))
		}
	}

	for _, qd := range durableQueries {
		if !qd.splice {
			continue
		}
		p, c := parts[qd.name], cuts[qd.name]
		if int64(len(p[0])) < c[0] || int64(len(p[1])) < c[1]-c[0] {
			t.Fatalf("%s: parts %d/%d shorter than cuts %v", qd.name, len(p[0]), len(p[1]), c)
		}
		got := append(append(append([]string{}, p[0][:c[0]]...), p[1][:c[1]-c[0]]...), p[2]...)
		ref := refRows[qd.name]
		if len(got) != len(ref) {
			t.Fatalf("%s: spliced %d rows, reference has %d", qd.name, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%s: row %d diverged after double resume:\n  resumed:   %s\n  reference: %s",
					qd.name, i, got[i], ref[i])
			}
		}
		if len(ref) == 0 {
			t.Fatalf("%s: reference produced no rows; test has no power", qd.name)
		}
	}
}

// TestSessionRegistryChurnDurable proves mid-session installs and
// uninstalls land in the snapshot: a query installed while the pump runs
// is recovered, an uninstalled one stays gone.
func TestSessionRegistryChurnDurable(t *testing.T) {
	dir := t.TempDir()
	e, err := engine.New(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetCheckpoint(engine.CheckpointConfig{Dir: dir, EveryWindows: 1, Keep: 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Install("doomed", "SELECT srcIP, len FROM flows", engine.InstallOptions{Via: testVia}); err != nil {
		t.Fatal(err)
	}
	feed := &infiniteFeed{passEvery: 10}
	if err := e.Start(context.Background(), feed); err != nil {
		t.Fatal(err)
	}
	late, err := e.Install("late", "SELECT len FROM flows", engine.InstallOptions{})
	if err != nil {
		t.Fatalf("mid-session install: %v", err)
	}
	sub := late.Subscribe()
	waitRows(t, sub, 5)
	sub.Close()
	if err := e.Uninstall("doomed"); err != nil {
		t.Fatalf("mid-session uninstall: %v", err)
	}
	feed.stop.Store(true)
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	lateRows := late.RowsOut()

	e2, err := engine.New(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.SetCheckpoint(engine.CheckpointConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	info, err := e2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Queries) != 1 || info.Queries[0] != "late" {
		t.Fatalf("restored queries %v, want [late] (doomed was uninstalled)", info.Queries)
	}
	h := e2.Lookup("late")
	if h == nil {
		t.Fatal("restored engine has no handle for late")
	}
	if h.RowsOut() != lateRows {
		t.Fatalf("restored rowsOut %d, want %d", h.RowsOut(), lateRows)
	}
	if e2.Lookup("doomed") != nil {
		t.Fatal("uninstalled query resurrected by restore")
	}
	// The recovered query keeps producing after the restart.
	sub2 := h.Subscribe()
	if err := e2.Start(context.Background(), &infiniteFeed{passEvery: 10}); err != nil {
		t.Fatal(err)
	}
	waitRows(t, sub2, 3)
	if err := e2.Drain(); err != nil {
		t.Fatal(err)
	}
	if h.RowsOut() <= lateRows {
		t.Fatalf("restored query stalled: rowsOut %d never passed %d", h.RowsOut(), lateRows)
	}
}

// TestRestoreGuards: the refusals of the one restore call.
func TestRestoreGuards(t *testing.T) {
	restoreInto := func(t *testing.T, e *engine.Engine, dir string) error {
		t.Helper()
		if err := e.SetCheckpoint(engine.CheckpointConfig{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		_, err := e.Restore()
		return err
	}
	t.Run("requires SetCheckpoint", func(t *testing.T) {
		e, _ := engine.New(1024)
		if _, err := e.Restore(); err == nil {
			t.Fatal("Restore without SetCheckpoint succeeded")
		}
	})
	t.Run("empty dir is ErrNoCheckpoint", func(t *testing.T) {
		e, _ := engine.New(1024)
		if err := restoreInto(t, e, t.TempDir()); !errors.Is(err, checkpoint.ErrNoCheckpoint) {
			t.Fatalf("want ErrNoCheckpoint, got %v", err)
		}
	})
	t.Run("requires empty registry", func(t *testing.T) {
		dir := t.TempDir()
		writeSessionSnapshot(t, dir)
		e, _ := engine.New(1024)
		if _, err := e.Install("q", "SELECT len FROM flows", engine.InstallOptions{Via: testVia}); err != nil {
			t.Fatal(err)
		}
		if err := restoreInto(t, e, dir); err == nil || !strings.Contains(err.Error(), "registry") {
			t.Fatalf("Restore over installed queries: %v", err)
		}
	})
	t.Run("different hand-built topology", func(t *testing.T) {
		// A snapshot with no hand-built nodes does not fit an engine that
		// has one, and the other way round.
		sess := t.TempDir()
		writeSessionSnapshot(t, sess)
		e, _ := engine.New(1024)
		if _, err := e.AddLowLevel("other", mustPlan(t, "SELECT uts, len FROM PKT", trace.Schema())); err != nil {
			t.Fatal(err)
		}
		if err := restoreInto(t, e, sess); err == nil || !strings.Contains(err.Error(), "topology") {
			t.Fatalf("registry-only snapshot into a hand-built node: %v", err)
		}
		run := t.TempDir()
		er, _ := buildSamplingEngine(t)
		if err := er.SetCheckpoint(engine.CheckpointConfig{Dir: run, EveryWindows: 1}); err != nil {
			t.Fatal(err)
		}
		if err := er.Run(steadyFeed(t)); err != nil {
			t.Fatal(err)
		}
		empty, _ := engine.New(1024)
		if err := restoreInto(t, empty, run); err == nil || !strings.Contains(err.Error(), "topology") {
			t.Fatalf("hand-built snapshot into an empty engine: %v", err)
		}
	})
	t.Run("requires idle engine", func(t *testing.T) {
		dir := t.TempDir()
		writeSessionSnapshot(t, dir)
		e, _ := engine.New(1024)
		if err := e.SetCheckpoint(engine.CheckpointConfig{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		feed := &infiniteFeed{passEvery: 10}
		if err := e.Start(context.Background(), feed); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Restore(); err == nil || !strings.Contains(err.Error(), "idle") {
			t.Fatalf("Restore into a running engine: %v", err)
		}
		feed.stop.Store(true)
		if err := e.Wait(); err != nil {
			t.Fatal(err)
		}
	})
}

// writeSessionSnapshot runs a short checkpointing session so dir holds at
// least one valid session snapshot.
func writeSessionSnapshot(t *testing.T, dir string) {
	t.Helper()
	e, err := engine.New(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetCheckpoint(engine.CheckpointConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Install("snapq", "SELECT srcIP, len FROM flows", engine.InstallOptions{Via: testVia}); err != nil {
		t.Fatal(err)
	}
	feed := &infiniteFeed{passEvery: 10}
	if err := e.Start(context.Background(), feed); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	feed.stop.Store(true)
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRefusesOldFormats: a payload that does not open with the
// current magic and version — either payload kind of the builds that had
// two — is refused at its header, never misread, and a current payload
// with bytes after its end is refused too.
func TestRestoreRefusesOldFormats(t *testing.T) {
	const magic = 0x53455353_4F503031 // "SESSOP01", what a session payload opened with at v1 too
	valid := t.TempDir()
	writeSessionSnapshot(t, valid)
	snap, err := checkpoint.Latest(valid)
	if err != nil {
		t.Fatal(err)
	}
	v1 := checkpoint.NewEncoder()
	v1.U64(magic)
	v1.U32(1)
	v1.Blob(snap.Payload[12:])
	oneShot := checkpoint.NewEncoder()
	oneShot.U64(0x9e3779b97f4a7c15) // a topology fingerprint came first
	oneShot.Blob(snap.Payload[12:])

	for _, tc := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"session payload v1", v1.Bytes(), "format v1"},
		{"one-shot payload without magic", oneShot.Bytes(), "magic"},
		{"trailing garbage", append(append([]byte{}, snap.Payload...), 0), "trailing garbage"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := checkpoint.WriteFile(dir, 7, tc.payload); err != nil {
				t.Fatal(err)
			}
			e, _ := engine.New(1024)
			if err := e.SetCheckpoint(engine.CheckpointConfig{Dir: dir}); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Restore(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want an error naming %q, got %v", tc.want, err)
			}
			if e.Packets() != 0 {
				t.Fatalf("refused restore moved the stream clock to packet %d", e.Packets())
			}
			if tc.want != "trailing garbage" && len(e.Nodes()) != 0 {
				t.Fatalf("a payload refused at its header left %d nodes behind", len(e.Nodes()))
			}
		})
	}
}

// TestSessionSnapshotAtBoundary: installs land in a boundary snapshot
// even without a clean shutdown — after an install is acknowledged and
// rows flow, the newest on-disk snapshot already names the query. This is
// the kill -9 contract: recovery cannot depend on the final snapshot.
func TestSessionSnapshotAtBoundary(t *testing.T) {
	dir := t.TempDir()
	e, err := engine.New(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetCheckpoint(engine.CheckpointConfig{Dir: dir, Keep: 50}); err != nil {
		t.Fatal(err)
	}
	feed := &infiniteFeed{passEvery: 10}
	if err := e.Start(context.Background(), feed); err != nil {
		t.Fatal(err)
	}
	h, err := e.Install("boundary", "SELECT srcIP, len FROM flows", engine.InstallOptions{Via: testVia})
	if err != nil {
		t.Fatal(err)
	}
	sub := h.Subscribe()
	waitRows(t, sub, 2)
	sub.Close()
	// Rows flowed after the install, so the pump passed at least one
	// boundary and the registry snapshot is on disk.
	deadline := time.After(5 * time.Second)
	for {
		names, err := checkpoint.List(dir)
		if err == nil && len(names) > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("no boundary snapshot appeared while the session ran")
		case <-time.After(5 * time.Millisecond):
		}
	}
	feed.stop.Store(true)
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	// Restore from disk and confirm the mid-session install is there.
	e2, err := engine.New(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.SetCheckpoint(engine.CheckpointConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	info, err := e2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, q := range info.Queries {
		found = found || q == "boundary"
	}
	if !found {
		t.Fatalf("boundary snapshot %v misses the mid-session install", info.Queries)
	}
}

// TestSessionRestoreSurvivesQuotaResume: the tenant gate's bucket and
// counters persist, so a restored quota'd query picks up mid-budget
// rather than with a fresh burst.
func TestSessionRestoreSurvivesQuotaResume(t *testing.T) {
	dir := t.TempDir()
	e, err := engine.New(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetCheckpoint(engine.CheckpointConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	q := overload.Quota{Rows: 50, BurstSec: 1, WarnLag: 4, DetachAfter: 0}
	h, err := e.Install("budget", "SELECT len FROM flows",
		engine.InstallOptions{Via: testVia, Quota: q, Buffer: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	feed := &infiniteFeed{passEvery: 2}
	if err := e.Start(context.Background(), feed); err != nil {
		t.Fatal(err)
	}
	sub := h.Subscribe()
	waitRows(t, sub, 10)
	feed.stop.Store(true)
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	before := h.QuotaState()
	if before.Offered != before.Admitted+before.Shed {
		t.Fatalf("accounting leaked pre-kill: %+v", before)
	}

	e2, err := engine.New(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.SetCheckpoint(engine.CheckpointConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Restore(); err != nil {
		t.Fatal(err)
	}
	h2 := e2.Lookup("budget")
	after := h2.QuotaState()
	if after.Offered != before.Offered || after.Admitted != before.Admitted || after.Shed != before.Shed {
		t.Fatalf("gate counters did not survive the restore:\n  before %+v\n  after  %+v", before, after)
	}
	if got := h2.Quota(); got.Rows != q.Rows || got.WarnLag != q.WarnLag {
		t.Fatalf("quota policy did not survive the restore: %+v", got)
	}
	if after.Query != "budget" {
		t.Fatalf("snapshot names %q", after.Query)
	}
}
