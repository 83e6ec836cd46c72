package engine_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"streamop/internal/engine"
	"streamop/internal/overload"
	"streamop/internal/telemetry"
	"streamop/internal/trace"
	"streamop/internal/tracing"
	"streamop/internal/tuple"
)

// Chaos suite: drive the paced parallel path and the single-threaded Run
// into manufactured overload (tiny rings, injected slow consumers) under
// every admission policy, and check the properties docs/ROBUSTNESS.md
// promises — no deadlock, exact accounting (offered == admitted + shed,
// admitted == consumed + dropped), shed-sample headroom, and graceful
// context cancellation. Run these under -race; the invariants double as
// ordering checks on the gate/ring handoff.

// watchdog fails the test if fn does not complete within timeout — the
// deadlock detector for the block policy's bounded-wait claim.
func watchdog(t *testing.T, timeout time.Duration, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		t.Fatalf("no completion within %v (deadlock?)", timeout)
		return nil
	}
}

// snapshotByRing indexes overload snapshots by "node/ring".
func snapshotByRing(snaps []overload.Snapshot) map[string]overload.Snapshot {
	m := make(map[string]overload.Snapshot, len(snaps))
	for _, s := range snaps {
		m[s.Node+"/"+s.Ring] = s
	}
	return m
}

// TestChaosPacedPoliciesExactAccounting overloads a mixed topology (one
// selection node, one 2-shard partial node, rings of 256) roughly 10x via
// an injected slow consumer, under each policy, and checks the accounting
// invariants hold exactly once the run drains.
func TestChaosPacedPoliciesExactAccounting(t *testing.T) {
	for _, pol := range []overload.Policy{overload.DropTail, overload.ShedSample, overload.Block} {
		t.Run(pol.String(), func(t *testing.T) {
			e, err := engine.New(256)
			if err != nil {
				t.Fatal(err)
			}
			e.SetShardRingCap(256)
			e.SetOverload(overload.Config{Policy: pol, UpdateEvery: 32, Seed: 7})
			e.SetFaults(&overload.Faults{ConsumerDelay: 500 * time.Microsecond})

			sel, err := e.AddLowLevel("sel", mustPlan(t, "SELECT time, len, uts FROM PKT", trace.Schema()))
			if err != nil {
				t.Fatal(err)
			}
			pn, err := e.AddLowLevelPartialAgg("pa",
				mustPlan(t, "SELECT tb, srcIP, count(*) FROM PKT GROUP BY time/1 as tb, srcIP", trace.Schema()), 256)
			if err != nil {
				t.Fatal(err)
			}
			pn.SetShards(2)

			feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 5, Duration: 0.5, Rate: 40000})
			if err := watchdog(t, 60*time.Second, func() error {
				return e.RunParallel(feed, 200)
			}); err != nil {
				t.Fatal(err)
			}

			snaps := e.Overload()
			if len(snaps) != 3 {
				t.Fatalf("got %d overload snapshots, want 3 (sel/0, pa/0, pa/1): %+v", len(snaps), snaps)
			}
			byRing := snapshotByRing(snaps)
			packets := uint64(e.Packets())

			for key, s := range byRing {
				if s.Offered != s.Admitted+s.Shed {
					t.Errorf("%s: offered %d != admitted %d + shed %d", key, s.Offered, s.Admitted, s.Shed)
				}
				if s.Policy != pol.String() {
					t.Errorf("%s: policy %q, want %q", key, s.Policy, pol)
				}
				if pol != overload.ShedSample && s.Shed != 0 {
					t.Errorf("%s: policy %s shed %d packets; only shed-sample sheds", key, pol, s.Shed)
				}
			}

			// Selection ring: every packet is offered once, and each admitted
			// packet was either consumed by the node or dropped at the ring.
			selSnap := byRing["sel/0"]
			if selSnap.Offered != packets {
				t.Errorf("sel/0: offered %d, want %d (every packet)", selSnap.Offered, packets)
			}
			if got, want := uint64(sel.Stats().TuplesIn)+selSnap.Dropped, selSnap.Admitted; got != want {
				t.Errorf("sel/0: consumed %d + dropped %d = %d, want admitted %d",
					sel.Stats().TuplesIn, selSnap.Dropped, got, want)
			}

			// Shard rings: routing sends each packet to exactly one shard, and
			// the shards together fold exactly what survived their gates.
			var shardOffered, shardSurvived uint64
			for _, lbl := range []string{"pa/0", "pa/1"} {
				s, ok := byRing[lbl]
				if !ok {
					t.Fatalf("missing shard snapshot %s", lbl)
				}
				shardOffered += s.Offered
				shardSurvived += s.Admitted - s.Dropped
			}
			if shardOffered != packets {
				t.Errorf("shards offered %d packets total, want %d", shardOffered, packets)
			}
			if got := uint64(pn.Stats().TuplesIn); got != shardSurvived {
				t.Errorf("shards folded %d tuples, want admitted-dropped = %d", got, shardSurvived)
			}

			// The overload must actually have happened for the policy to bite.
			switch pol {
			case overload.DropTail:
				if selSnap.Dropped == 0 {
					t.Error("drop-tail under 10x overload dropped nothing; scenario too gentle")
				}
			case overload.ShedSample:
				if selSnap.Shed == 0 {
					t.Error("shed-sample under 10x overload shed nothing; scenario too gentle")
				}
			}
		})
	}
}

// TestChaosShedSampleKeepsHeadroom: under ~10x overload the AIMD gate must
// converge below the high-water mark instead of pinning the ring at
// capacity — the property that distinguishes shed-sample from drop-tail.
func TestChaosShedSampleKeepsHeadroom(t *testing.T) {
	const cap = 4096
	e, err := engine.New(cap)
	if err != nil {
		t.Fatal(err)
	}
	e.SetOverload(overload.Config{Policy: overload.ShedSample, HighWater: 0.5, UpdateEvery: 32, Seed: 11})
	e.SetFaults(&overload.Faults{ConsumerDelay: time.Millisecond})
	sel, err := e.AddLowLevel("sel", mustPlan(t, "SELECT time, len, uts FROM PKT", trace.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	// Generated up front: the producer has to outrun the delayed consumer,
	// and under -race the generator, not the pacer, set its speed.
	gen, _ := trace.NewSteady(trace.SteadyConfig{Seed: 9, Duration: 1, Rate: 50000})
	feed := trace.NewReplay(trace.Collect(gen))
	if err := watchdog(t, 60*time.Second, func() error {
		return e.RunParallel(feed, 500)
	}); err != nil {
		t.Fatal(err)
	}
	s := snapshotByRing(e.Overload())["sel/0"]
	if s.Shed == 0 {
		t.Fatal("no shedding under 10x overload; scenario too gentle to test headroom")
	}
	if s.Offered != s.Admitted+s.Shed {
		t.Errorf("offered %d != admitted %d + shed %d", s.Offered, s.Admitted, s.Shed)
	}
	if got, want := uint64(sel.Stats().TuplesIn)+s.Dropped, s.Admitted; got != want {
		t.Errorf("consumed+dropped %d, want admitted %d", got, want)
	}
	// HighWater 0.5 of 4096 is 2048; allow AIMD reaction overshoot up to
	// 3/4 of capacity, but the ring must never have pinned near full.
	if s.PeakOcc > cap*3/4 {
		t.Errorf("peak occupancy %d exceeds %d (3/4 cap); AIMD failed to hold headroom below high water 2048", s.PeakOcc, cap*3/4)
	}
}

// endlessFeed never drains: timestamps advance 100us per packet so windows
// keep closing while a cancellation test holds the engine mid-stream.
type endlessFeed struct{ ts uint64 }

func (f *endlessFeed) Next() (trace.Packet, bool) {
	f.ts += 100_000
	return trace.Packet{Time: f.ts, SrcIP: 0x0a000001, Len: 100}, true
}

// TestRunContextCancellation: cancelling RunContext must return
// context.Canceled within 100ms, with the source ring drained, open
// windows flushed, and the gate accounting boundary-consistent.
func TestRunContextCancellation(t *testing.T) {
	e, err := engine.New(1024)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := e.AddLowLevel("sel", mustPlan(t, "SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb", trace.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	var rows int64
	sel.Subscribe(func(row tuple.Tuple) error { rows++; return nil })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() { errCh <- e.RunContext(ctx, &endlessFeed{}) }()
	time.Sleep(30 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-errCh:
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Errorf("RunContext returned %v after cancel, want <= 100ms", elapsed)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("RunContext returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunContext never returned after cancellation")
	}

	if rows == 0 {
		t.Error("no rows emitted: cancellation skipped the open-window flush")
	}
	s := snapshotByRing(e.Overload())["source/0"]
	if s.Dropped != 0 {
		t.Errorf("self-clocked Run dropped %d packets", s.Dropped)
	}
	if got := uint64(sel.Stats().TuplesIn); got != s.Admitted {
		t.Errorf("node consumed %d tuples, want every admitted packet (%d): ring not drained on cancel", got, s.Admitted)
	}
	if s.Offered != uint64(e.Packets()) {
		t.Errorf("gate offered %d, engine counted %d packets", s.Offered, e.Packets())
	}
}

// TestRunParallelContextCancellation covers both parallel modes: paced
// (gated rings) and unpaced (backpressure barrier path). Each must unwind
// through the normal drain-and-flush shutdown and return context.Canceled.
func TestRunParallelContextCancellation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		speedup float64
	}{{"paced", 5000}, {"unpaced", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := engine.New(1024)
			if err != nil {
				t.Fatal(err)
			}
			sel, err := e.AddLowLevel("sel", mustPlan(t, "SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb", trace.Schema()))
			if err != nil {
				t.Fatal(err)
			}
			var rows int64
			sel.Subscribe(func(row tuple.Tuple) error { rows++; return nil })

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errCh := make(chan error, 1)
			go func() { errCh <- e.RunParallelContext(ctx, &endlessFeed{}, tc.speedup) }()
			time.Sleep(30 * time.Millisecond)
			start := time.Now()
			cancel()
			select {
			case err := <-errCh:
				if elapsed := time.Since(start); elapsed > time.Second {
					t.Errorf("RunParallelContext returned %v after cancel, want <= 1s", elapsed)
				}
				if !errors.Is(err, context.Canceled) {
					t.Errorf("RunParallelContext returned %v, want context.Canceled", err)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("RunParallelContext never returned after cancellation")
			}
			if rows == 0 {
				t.Error("no rows emitted: cancellation skipped the open-window flush")
			}
		})
	}
}

// TestRunShedSampleTracesShedDisposition: on the self-clocked Run path a
// shed-sample gate on the source ring sheds deterministically, every shed
// traced packet ends in the terminal "shed" disposition, and the state
// machine's transitions land in the telemetry event log.
func TestRunShedSampleTracesShedDisposition(t *testing.T) {
	e, err := engine.New(512)
	if err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	col := telemetry.NewWithEvents(&events)
	e.SetCollector(col)
	tr := tracing.New(tracing.Config{Every: 1, Seed: 3})
	tr.SetCollector(col)
	e.SetTracer(tr)
	e.SetOverload(overload.Config{Policy: overload.ShedSample, UpdateEvery: 16, Seed: 3})

	sel, err := e.AddLowLevel("sel", mustPlan(t, "SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb", trace.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 21, Duration: 0.5, Rate: 40000})
	if err := e.Run(feed); err != nil {
		t.Fatal(err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}

	s := snapshotByRing(e.Overload())["source/0"]
	if s.Shed == 0 {
		t.Fatal("shed-sample on a fill-to-cap source ring shed nothing")
	}
	if s.Offered != s.Admitted+s.Shed {
		t.Errorf("offered %d != admitted %d + shed %d", s.Offered, s.Admitted, s.Shed)
	}
	if s.Dropped != 0 {
		t.Errorf("self-clocked Run dropped %d packets", s.Dropped)
	}
	if got := uint64(sel.Stats().TuplesIn); got != s.Admitted {
		t.Errorf("node consumed %d tuples, want admitted %d", got, s.Admitted)
	}

	sum := tr.Summary()
	if sum.Dispositions["shed"] == 0 {
		t.Errorf("tracer recorded no shed dispositions: %v", sum.Dispositions)
	}
	// With Every=1, traced sheds must match the controller exactly.
	if got := sum.Dispositions["shed"]; got != int64(s.Shed) {
		t.Errorf("tracer shed dispositions %d, controller shed %d", got, s.Shed)
	}
	if !strings.Contains(events.String(), `"overload_state"`) {
		t.Error("event log has no overload_state transitions")
	}
	if !strings.Contains(events.String(), fmt.Sprintf(`"to":%q`, "shedding")) {
		t.Error("event log never entered the shedding state")
	}
}
