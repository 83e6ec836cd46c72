package engine_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"streamop/internal/engine"
	"streamop/internal/overload"
	"streamop/internal/trace"
)

// Live-session chaos harness: one session carrying well-behaved tenants,
// an over-budget tenant, a dead Block subscriber, and continuous
// install/uninstall churn, all under seeded fault injection. The
// well-behaved tenants' output must be byte-identical to a calm reference
// run without the hostile tenants, the gate accounting must balance
// exactly, the dead subscriber must be force-detached, and the process
// must come back to its starting goroutine count.

// chaosFaults perturbs the packet stream deterministically (seeded), so
// the hostile and reference sessions see the same packets.
const chaosFaults = "drop:0.01,burst:64@0.5"

// chaosTenants are the well-behaved standing queries whose rows are
// compared byte for byte between the calm and hostile runs. The ring
// (1<<16) exceeds the feed length, so pump stalls caused by hostile
// tenants can never translate into ring drops that would perturb them.
var chaosTenants = []struct {
	name string
	src  string
	opts engine.InstallOptions
}{
	{"tenantA", "SELECT tb, srcIP, sum(len), count(*) FROM flows GROUP BY time/1 as tb, srcIP",
		engine.InstallOptions{Via: testVia, Seed: 21, Buffer: 1 << 16}},
	{"tenantB", samplingQueries[2].src, engine.InstallOptions{Seed: 22, Buffer: 1 << 15}},
}

func installChaosTenants(t *testing.T, e *engine.Engine) map[string]*engine.Subscription {
	t.Helper()
	subs := make(map[string]*engine.Subscription)
	for _, qd := range chaosTenants {
		h, err := e.Install(qd.name, qd.src, qd.opts)
		if err != nil {
			t.Fatalf("install %s: %v", qd.name, err)
		}
		subs[qd.name] = h.Subscribe()
	}
	return subs
}

func chaosFeed(t *testing.T) trace.Feed {
	t.Helper()
	feed, err := trace.NewSteady(trace.SteadyConfig{Seed: 31, Duration: 4, Rate: 10000})
	if err != nil {
		t.Fatal(err)
	}
	return feed
}

func setChaosFaults(t *testing.T, e *engine.Engine) {
	t.Helper()
	f, err := overload.ParseFaults(chaosFaults, 42)
	if err != nil {
		t.Fatal(err)
	}
	e.SetFaults(f)
}

func TestSessionChaosQuotaIsolation(t *testing.T) {
	before := runtime.NumGoroutine()

	// Calm reference: only the well-behaved tenants, same faults.
	eRef, err := engine.New(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	setChaosFaults(t, eRef)
	refSubs := installChaosTenants(t, eRef)
	if err := eRef.Start(context.Background(), chaosFeed(t)); err != nil {
		t.Fatal(err)
	}
	if err := eRef.Wait(); err != nil {
		t.Fatal(err)
	}
	refRows := make(map[string][]string)
	for name, sub := range refSubs {
		refRows[name] = drainSub(t, name, sub)
		if len(refRows[name]) == 0 {
			t.Fatalf("reference %s produced no rows; test has no power", name)
		}
	}

	// Hostile session: same tenants and faults, plus an over-budget
	// tenant, a dead Block subscriber, and install/uninstall churn.
	e, err := engine.New(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	setChaosFaults(t, e)
	subs := installChaosTenants(t, e)

	greedy, err := e.Install("greedy", "SELECT time, len FROM flows",
		engine.InstallOptions{Seed: 23, Buffer: 1 << 13,
			Quota: overload.Quota{Rows: 200, BurstSec: 1}})
	if err != nil {
		t.Fatal(err)
	}
	greedySub := greedy.Subscribe()

	blocked, err := e.Install("blocked", "SELECT time FROM flows",
		engine.InstallOptions{Seed: 24, Buffer: 8, Block: true,
			Quota: overload.Quota{WarnLag: 4, DetachAfter: 16}})
	if err != nil {
		t.Fatal(err)
	}
	deadSub := blocked.Subscribe() // never read: the dead tenant

	if err := e.Start(context.Background(), chaosFeed(t)); err != nil {
		t.Fatal(err)
	}

	// Churn goroutine: installs, reads a row, uninstalls, repeatedly,
	// for as long as the session lives. Failures after the session ends
	// are expected and ignored; anything it leaves behind is cleaned up
	// below before the leak check.
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; e.SessionActive(); i++ {
			name := fmt.Sprintf("churn%d", i%4)
			h, err := e.Install(name, "SELECT time, len FROM flows", engine.InstallOptions{Buffer: 64})
			if err != nil {
				continue
			}
			sub := h.Subscribe()
			select {
			case <-sub.C():
			case <-time.After(10 * time.Millisecond):
			}
			sub.Close()
			_ = e.Uninstall(name)
		}
	}()

	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	<-churnDone
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("churn%d", i)
		if e.Lookup(name) != nil {
			if err := e.Uninstall(name); err != nil {
				t.Fatalf("cleanup %s: %v", name, err)
			}
		}
	}

	// Zero impact on the well-behaved tenants: byte-identical output.
	for name, sub := range subs {
		got := drainSub(t, name, sub)
		if d := sub.Dropped(); d != 0 {
			t.Fatalf("%s dropped %d rows under chaos; grow the buffer", name, d)
		}
		ref := refRows[name]
		if len(got) != len(ref) {
			t.Fatalf("%s: %d rows under chaos, %d in the calm reference", name, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%s: row %d diverged under chaos:\n  chaos: %s\n  calm:  %s", name, i, got[i], ref[i])
			}
		}
	}

	// Exact accounting for the over-budget tenant, and the budget bit.
	snap := greedy.QuotaState()
	if snap.Offered != snap.Admitted+snap.Shed {
		t.Fatalf("greedy accounting leaked: offered %d != admitted %d + shed %d",
			snap.Offered, snap.Admitted, snap.Shed)
	}
	if snap.Shed == 0 {
		t.Fatal("greedy shed nothing; the quota never engaged")
	}
	if got := greedy.RowsOut(); got != int64(snap.Admitted) {
		t.Fatalf("greedy rowsOut %d != admitted %d", got, snap.Admitted)
	}
	greedyRows := drainSub(t, "greedy", greedySub)
	if int64(len(greedyRows))+int64(greedySub.Dropped()) != int64(snap.Admitted) {
		t.Fatalf("greedy delivered %d + dropped %d != admitted %d",
			len(greedyRows), greedySub.Dropped(), snap.Admitted)
	}

	// The dead Block subscriber was force-detached instead of stalling
	// the pump for the rest of the run.
	if !deadSub.Detached() {
		t.Fatal("dead Block subscriber was never detached")
	}
	if got := blocked.DetachedSubs(); got != 1 {
		t.Fatalf("blocked query detached %d subscriptions, want 1", got)
	}
	if got := blocked.Dropped(); got < 16 {
		t.Fatalf("blocked query dropped %d rows, want >= DetachAfter (16)", got)
	}
	// Detachment closes the channel: a drain must terminate.
	drainSub(t, "blocked", deadSub)
	bs := blocked.QuotaState()
	if bs.Detached != 1 || bs.Subscribers != 0 {
		t.Fatalf("blocked quota snapshot %+v, want detached=1 subscribers=0", bs)
	}

	// Everything must wind down: no goroutine leaks from churn, detach,
	// or the hostile tenants.
	var after int
	for i := 0; i < 100; i++ {
		after = runtime.NumGoroutine()
		if after <= before {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if after > before {
		t.Fatalf("goroutines: %d before, %d after", before, after)
	}
}

// TestSessionChaosKillAndResume puts restart-during-chaos on top: the
// session crashes mid-stream under faults and churn, restores from disk,
// and the well-behaved tenants' spliced output still matches the calm
// reference byte for byte.
func TestSessionChaosKillAndResume(t *testing.T) {
	dir := t.TempDir()

	eRef, err := engine.New(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	setChaosFaults(t, eRef)
	refSubs := installChaosTenants(t, eRef)
	if err := eRef.Start(context.Background(), chaosFeed(t)); err != nil {
		t.Fatal(err)
	}
	if err := eRef.Wait(); err != nil {
		t.Fatal(err)
	}
	refRows := make(map[string][]string)
	for name, sub := range refSubs {
		refRows[name] = drainSub(t, name, sub)
	}

	// Crashed leg, with a quota'd tenant and churn alongside.
	eA, err := engine.New(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := eA.SetCheckpoint(engine.CheckpointConfig{Dir: dir, EveryWindows: 1, Keep: 10}); err != nil {
		t.Fatal(err)
	}
	setChaosFaults(t, eA)
	subsA := installChaosTenants(t, eA)
	if _, err := eA.Install("greedy", "SELECT time, len FROM flows",
		engine.InstallOptions{Seed: 23, Buffer: 1 << 13,
			Quota: overload.Quota{Rows: 200, BurstSec: 1}}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := eA.Start(ctx, &cancelAt{inner: chaosFeed(t), at: 23000, cancel: cancel}); err != nil {
		t.Fatal(err)
	}
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; eA.SessionActive(); i++ {
			name := fmt.Sprintf("churn%d", i%4)
			if _, err := eA.Install(name, "SELECT time FROM flows", engine.InstallOptions{Buffer: 64}); err != nil {
				continue
			}
			time.Sleep(2 * time.Millisecond)
			_ = eA.Uninstall(name)
		}
	}()
	err = eA.Wait()
	<-churnDone
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	rowsA := make(map[string][]string)
	for name, sub := range subsA {
		rowsA[name] = drainSub(t, name, sub)
	}

	// Resume from disk. Churn queries may or may not appear in the
	// snapshot depending on when the crash landed; the well-behaved
	// tenants must, and must splice cleanly.
	eB, err := engine.New(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := eB.SetCheckpoint(engine.CheckpointConfig{Dir: dir, EveryWindows: 1, Keep: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := eB.Restore(); err != nil {
		t.Fatal(err)
	}
	setChaosFaults(t, eB)
	cut := make(map[string]int64)
	subsB := make(map[string]*engine.Subscription)
	for _, qd := range chaosTenants {
		h := eB.Lookup(qd.name)
		if h == nil {
			t.Fatalf("restore lost %s", qd.name)
		}
		cut[qd.name] = h.RowsOut()
		subsB[qd.name] = h.Subscribe()
	}
	if eB.Lookup("greedy") == nil {
		t.Fatal("restore lost the quota'd tenant")
	}
	if err := eB.Start(context.Background(), chaosFeed(t)); err != nil {
		t.Fatal(err)
	}
	if err := eB.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, qd := range chaosTenants {
		rowsB := drainSub(t, qd.name, subsB[qd.name])
		spliceCompare(t, qd.name, refRows[qd.name], rowsA[qd.name], rowsB, cut[qd.name])
	}
	snap := eB.Lookup("greedy").QuotaState()
	if snap.Offered != snap.Admitted+snap.Shed {
		t.Fatalf("greedy accounting leaked across the resume: %+v", snap)
	}
}
