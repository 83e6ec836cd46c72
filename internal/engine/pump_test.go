package engine_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"streamop/internal/engine"
	"streamop/internal/overload"
	"streamop/internal/trace"
)

// The pump (pump.go) is the one place a run takes packets from: these
// tests pin what Run, a session and RunParallel's producer must agree on
// because they share it — source-gate accounting under every policy, a
// pacer that sleeps and can be cancelled mid-wait, and the stream clock.

// TestRunSourceGateAccounting: the serial loop offers every packet through
// the source ring's gate, so the accounting invariants hold on Run under
// every policy — block included, which never waits there (the fill loop
// guarantees room) but counts what it was offered.
func TestRunSourceGateAccounting(t *testing.T) {
	for _, pol := range []overload.Policy{overload.DropTail, overload.ShedSample, overload.Block} {
		t.Run(pol.String(), func(t *testing.T) {
			e, err := engine.New(512)
			if err != nil {
				t.Fatal(err)
			}
			e.SetOverload(overload.Config{Policy: pol, UpdateEvery: 16, Seed: 3})
			sel, err := e.AddLowLevel("sel", mustPlan(t, "SELECT time, len FROM PKT", trace.Schema()))
			if err != nil {
				t.Fatal(err)
			}
			feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 21, Duration: 0.25, Rate: 40000})
			if err := e.Run(feed); err != nil {
				t.Fatal(err)
			}
			s := snapshotByRing(e.Overload())["source/0"]
			if e.Packets() == 0 || s.Offered != uint64(e.Packets()) {
				t.Errorf("gate offered %d, engine counted %d packets", s.Offered, e.Packets())
			}
			if s.Offered != s.Admitted+s.Shed {
				t.Errorf("offered %d != admitted %d + shed %d", s.Offered, s.Admitted, s.Shed)
			}
			if got := uint64(sel.Stats().TuplesIn) + s.Dropped; got != s.Admitted {
				t.Errorf("consumed %d + dropped %d = %d, want admitted %d", sel.Stats().TuplesIn, s.Dropped, got, s.Admitted)
			}
		})
	}
}

// TestPacedRunParallelSleeps: waiting for a paced packet to come due must
// not cost a core. A real-time replay of a light feed leaves the producer
// and the node's worker idle nearly all of the time.
func TestPacedRunParallelSleeps(t *testing.T) {
	cpu0, ok := processCPU()
	if !ok {
		t.Skip("no process CPU clock on this platform")
	}
	e, err := engine.New(4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddLowLevel("sel", mustPlan(t, "SELECT time, len FROM PKT", trace.Schema())); err != nil {
		t.Fatal(err)
	}
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 5, Duration: 0.3, Rate: 2000})
	start := time.Now()
	if err := e.RunParallel(feed, 1); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	cpu1, _ := processCPU()
	if wall < 250*time.Millisecond {
		t.Fatalf("a 0.3 s feed at speedup 1 took %v: not paced", wall)
	}
	cpu := cpu1 - cpu0
	t.Logf("%v of CPU over %v of wall time", cpu, wall)
	if cpu > wall/2 {
		t.Errorf("paced RunParallel used %v of CPU over %v of wall time, want less than half: something spins while waiting", cpu, wall)
	}
}

// gapFeed yields one packet, then packets a minute of stream time apart: at
// speedup 1 the pacer is waiting whenever the test looks.
type gapFeed struct{ n uint64 }

func (f *gapFeed) Next() (trace.Packet, bool) {
	f.n++
	return trace.Packet{Time: f.n * uint64(time.Minute), SrcIP: 0x0a000001, Proto: 6, Len: 1500}, true
}

// TestCancelDuringPacingWait: a cancellation that arrives while the pacer
// is waiting for a packet far in the stream's future ends the run at once,
// in both paced modes.
func TestCancelDuringPacingWait(t *testing.T) {
	cancelled := func(t *testing.T, cancel context.CancelFunc, wait func() error) {
		t.Helper()
		time.Sleep(30 * time.Millisecond)
		start := time.Now()
		cancel()
		err := watchdog(t, 10*time.Second, wait)
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Errorf("returned %v after cancel, want <= 100ms", elapsed)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("returned %v, want context.Canceled", err)
		}
	}
	t.Run("RunParallel", func(t *testing.T) {
		e, _ := engine.New(1024)
		if _, err := e.AddLowLevel("sel", mustPlan(t, "SELECT time, len FROM PKT", trace.Schema())); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		errCh := make(chan error, 1)
		go func() { errCh <- e.RunParallelContext(ctx, &gapFeed{}, 1) }()
		cancelled(t, cancel, func() error { return <-errCh })
	})
	t.Run("session", func(t *testing.T) {
		e, _ := engine.New(1024)
		if _, err := e.Install("q", "SELECT len FROM flows", engine.InstallOptions{Via: testVia}); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if err := e.StartWith(ctx, &gapFeed{}, engine.StartOptions{Speedup: 1}); err != nil {
			t.Fatal(err)
		}
		cancelled(t, cancel, e.Wait)
	})
}

// TestStreamClockAgreesAcrossModes: the same replay ends with the same
// packet count and stream duration whichever mode pumped it.
func TestStreamClockAgreesAcrossModes(t *testing.T) {
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 8, Duration: 0.5, Rate: 20000})
	pkts := trace.Collect(feed)
	build := func() *engine.Engine {
		e, _ := engine.New(1024)
		if _, err := e.Install("q", "SELECT time, len FROM PKT", engine.InstallOptions{}); err != nil {
			t.Fatal(err)
		}
		return e
	}
	run := build()
	if err := run.Run(trace.NewReplay(pkts)); err != nil {
		t.Fatal(err)
	}
	if run.Packets() != int64(len(pkts)) || run.StreamDuration() <= 0 {
		t.Fatalf("Run: %d packets over %v, want %d over a positive duration", run.Packets(), run.StreamDuration(), len(pkts))
	}
	sess := build()
	if err := sess.Start(context.Background(), trace.NewReplay(pkts)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Wait(); err != nil {
		t.Fatal(err)
	}
	par := build()
	if err := par.RunParallel(trace.NewReplay(pkts), 0); err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*engine.Engine{"session": sess, "RunParallel": par} {
		if e.Packets() != run.Packets() || e.StreamDuration() != run.StreamDuration() {
			t.Errorf("%s: %d packets over %v, Run: %d over %v",
				name, e.Packets(), e.StreamDuration(), run.Packets(), run.StreamDuration())
		}
	}
}
