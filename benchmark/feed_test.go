package main

import (
	"reflect"
	"testing"

	"streamop/internal/trace"
)

func drain(f *loopFeed) []trace.Packet {
	var out []trace.Packet
	for {
		p, ok := f.Next()
		if !ok {
			return out
		}
		out = append(out, p)
	}
}

func testLap(t *testing.T, seed uint64) *lap {
	t.Helper()
	l, err := materialise(seed, 3, 2000, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLoopFeedKeepsTimeMoving(t *testing.T) {
	l := testLap(t, 7)
	f := newLoopFeed(l, 0, func(laps int) bool { return laps >= 4 })
	pkts := drain(f)
	if len(pkts) != 4*len(l.pkts) {
		t.Fatalf("%d packets, want 4 laps of %d", len(pkts), len(l.pkts))
	}
	for i := 1; i < len(pkts); i++ {
		if pkts[i].Time < pkts[i-1].Time {
			t.Fatalf("packet %d goes back in time: %d after %d", i, pkts[i].Time, pkts[i-1].Time)
		}
		if i%len(l.pkts) == 0 && pkts[i].Time <= pkts[i-1].Time {
			t.Fatalf("lap boundary at %d does not advance time", i)
		}
	}
	// Every window of every lap closes, in order, exactly once.
	if want := 4*int(l.seconds) - 1; len(f.closes) != want {
		t.Fatalf("%d window closes, want %d", len(f.closes), want)
	}
	for i, c := range f.closes {
		if c.tb != uint64(i) {
			t.Fatalf("close %d is window %d", i, c.tb)
		}
		if c.due != c.at || c.lag != 0 {
			t.Fatalf("unpaced close %d: due %d at %d lag %d", i, c.due, c.at, c.lag)
		}
	}
	if len(f.marks) != 5 {
		t.Fatalf("%d lap marks, want 5", len(f.marks))
	}
	// The second lap is the first, one lap length later.
	n := len(l.pkts)
	for i := 0; i < n; i++ {
		if pkts[n+i].Time != pkts[i].Time+l.seconds*1e9 || pkts[n+i].SrcIP != pkts[i].SrcIP {
			t.Fatalf("lap 1 packet %d is not lap 0's shifted by the lap length", i)
		}
	}
}

func TestLoopFeedIsAFunctionOfTheSeed(t *testing.T) {
	a := drain(newLoopFeed(testLap(t, 7), 0, func(laps int) bool { return laps >= 2 }))
	b := drain(newLoopFeed(testLap(t, 7), 0, func(laps int) bool { return laps >= 2 }))
	c := drain(newLoopFeed(testLap(t, 8), 0, func(laps int) bool { return laps >= 2 }))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds gave different packets")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same packets")
	}
}

func TestMaterialiseReusesTheBuffer(t *testing.T) {
	a := testLap(t, 7)
	want := append([]trace.Packet(nil), a.pkts...)
	b, err := materialise(7, 3, 2000, 256, a.pkts)
	if err != nil {
		t.Fatal(err)
	}
	if &a.pkts[0] != &b.pkts[0] {
		t.Error("the second lap did not reuse the first one's backing array")
	}
	if !reflect.DeepEqual(b.pkts, want) {
		t.Error("a reused buffer changed the packets")
	}
}

// A paced feed stamps each window's closing packet with the wall time it
// is due under the speedup, from the feed's own origin.
func TestDueTimeStamping(t *testing.T) {
	l := testLap(t, 7)
	const speedup = 50
	f := newLoopFeed(l, speedup, func(laps int) bool { return laps >= 2 })
	pkts := drain(f) // far faster than the schedule: no lag
	if len(f.closes) != 2*int(l.seconds)-1 {
		t.Fatalf("%d closes", len(f.closes))
	}
	i := 0
	for _, c := range f.closes {
		// The closing packet is the first with time >= tb+1.
		for pkts[i].Time/1e9 <= c.tb {
			i++
		}
		want := f.t0 + int64(float64(pkts[i].Time-pkts[0].Time)/speedup)
		if c.due != want {
			t.Fatalf("window %d due %d, want %d", c.tb, c.due, want)
		}
		// Within one packet gap of the window's end on the schedule.
		edge := f.t0 + int64(float64((c.tb+1)*1e9-pkts[0].Time)/speedup)
		if c.due < edge || c.due-edge > int64(1e9/speedup/20) {
			t.Fatalf("window %d due %d ns after its scheduled end", c.tb, c.due-edge)
		}
		if c.lag != 0 {
			t.Fatalf("window %d: lag %d although the consumer ran ahead of schedule", c.tb, c.lag)
		}
	}
	// A consumer that comes late is charged the lateness.
	g := newLoopFeed(l, 1e9, func(laps int) bool { return laps >= 2 }) // everything due at once
	drain(g)
	late := 0
	for _, c := range g.closes {
		if c.lag > 0 {
			late++
		}
		if c.lag != c.at-c.due && c.lag != 0 {
			t.Fatalf("lag %d is not at-due (%d)", c.lag, c.at-c.due)
		}
	}
	if late == 0 {
		t.Error("no close reported lag on an impossible schedule")
	}
}

// A paced run whose lag at the end exceeds its lag at the midpoint by more
// than a window was not keeping up, and is rejected.
func TestBacklogCheck(t *testing.T) {
	f := &loopFeed{speedup: 50} // 20 ms windows
	for i := 0; i < 100; i++ {
		f.closes = append(f.closes, winClose{tb: uint64(i), lag: 3e6})
	}
	if err := backlogCheck(f); err != nil {
		t.Errorf("steady lateness is not a growing backlog: %v", err)
	}
	f.closes[99].lag = 3e6 + 19e6
	if err := backlogCheck(f); err != nil {
		t.Errorf("less than a window of growth was rejected: %v", err)
	}
	f.closes[99].lag = 3e6 + 21e6
	if err := backlogCheck(f); err == nil {
		t.Error("a lag growing by more than a window was accepted")
	}
	f.speedup = 0
	if err := backlogCheck(f); err != nil {
		t.Errorf("an unpaced feed has no schedule to fall behind: %v", err)
	}
}

func TestLapStatsSkipTheWarmupLap(t *testing.T) {
	f := newLoopFeed(testLap(t, 7), 0, func(laps int) bool { return laps >= 1 })
	drain(f)
	if _, err := f.stats(); err == nil {
		t.Error("a single lap has no measured lap; stats must refuse")
	}
	f = newLoopFeed(testLap(t, 7), 0, func(laps int) bool { return laps >= 3 })
	drain(f)
	st, err := f.stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.laps != 2 || st.packets != 2*int64(len(f.lap.pkts)) {
		t.Errorf("laps %d packets %d", st.laps, st.packets)
	}
}

// An unpaced feed runs a calibration pass at every window close, and the
// laps leave the passes out: on a lap this small the passes are nearly all
// of the wall time, and next to none of it may remain in the lap figures.
func TestCalibrationStaysOutOfTheLaps(t *testing.T) {
	f := newLoopFeed(testLap(t, 7), 0, func(laps int) bool { return laps >= 3 })
	f.calib = newCalibrator()
	drain(f)
	if len(f.calib.ms) != len(f.closes) {
		t.Fatalf("%d passes for %d window closes", len(f.calib.ms), len(f.closes))
	}
	st, err := f.stats()
	if err != nil {
		t.Fatal(err)
	}
	raw := float64(f.marks[3].wall-f.marks[1].wall) / 1e9
	if st.wall <= 0 || st.wall > raw/2 {
		t.Errorf("laps took %.6f s of %.6f s with the passes in: the passes were not left out", st.wall, raw)
	}
	if s := f.calib.speed(); s <= 0 || s > 100 {
		t.Errorf("host speed %v", s)
	}
	var none *calibrator
	if none.pass(false) != 0 || none.speed() != 1 {
		t.Error("a feed without a calibrator must run as measured")
	}
}

// A paced feed runs its passes inside the window, never at a close, so no
// close is stamped late because of one.
func TestPacedCalibrationAvoidsTheCloses(t *testing.T) {
	l, err := materialise(7, 2*calibEvery, 2000, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := newLoopFeed(l, 1e9, func(laps int) bool { return laps >= 1 })
	f.calib = newCalibrator()
	drain(f)
	if len(f.calib.ms) != 2 {
		t.Errorf("%d passes over %d windows, want one every %d", len(f.calib.ms), l.seconds, calibEvery)
	}
	if f.calib.stallNS != 0 {
		t.Error("a paced pass came off the lap's wall time; the schedule sets a paced lap's length")
	}
}
