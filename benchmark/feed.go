package main

import (
	"fmt"
	"sort"
	"time"

	"streamop/internal/trace"
)

// epoch anchors every wall stamp the benchmark takes; stamps are
// monotonic nanoseconds since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// lap is one pre-materialised stretch of trace.Steady covering a whole
// number of simulated seconds, so replaying it with a per-lap timestamp
// offset keeps the one-second windows aligned across laps.
type lap struct {
	pkts    []trace.Packet
	seconds uint64
	// winLen[w] is the true Σ len of window w, the yardstick for
	// operator.sample_relerr_mean.
	winLen []float64
}

// materialise generates the lap. reuse, when it has the capacity, backs
// the packets, so repeated set-ups do not pile up garbage the size of a lap.
func materialise(seed uint64, seconds int, rate float64, hosts uint64, reuse []trace.Packet) (*lap, error) {
	f, err := trace.NewSteady(trace.SteadyConfig{
		Seed: seed, Duration: float64(seconds), Rate: rate, Jitter: 0.05, Hosts: hosts,
	})
	if err != nil {
		return nil, err
	}
	l := &lap{seconds: uint64(seconds), winLen: make([]float64, seconds)}
	if l.pkts = reuse[:0]; cap(l.pkts) == 0 {
		l.pkts = make([]trace.Packet, 0, int(float64(seconds)*rate*1.03))
	}
	for {
		p, ok := f.Next()
		if !ok {
			break
		}
		l.pkts = append(l.pkts, p)
		l.winLen[p.Time/1e9] += float64(p.Len)
	}
	if len(l.pkts) == 0 {
		return nil, fmt.Errorf("empty lap (seed %d, %d s at %g pps)", seed, seconds, rate)
	}
	return l, nil
}

// head returns the first seconds of the lap as a lap of its own, sharing
// the packets.
func (l *lap) head(seconds uint64) *lap {
	seconds = min(seconds, l.seconds)
	n := sort.Search(len(l.pkts), func(i int) bool { return l.pkts[i].Time >= seconds*1e9 })
	return &lap{pkts: l.pkts[:n], seconds: seconds, winLen: l.winLen[:seconds]}
}

// lapMark is taken as the first packet of each lap is handed out.
type lapMark struct {
	wall int64   // ns since epoch
	cpu  float64 // process CPU seconds so far
	// What the calibrator has cost so far: the laps leave it out.
	calCPU, calStall int64 // ns
}

// winClose is taken as a window's closing packet — the first packet with
// time >= tb+1 — is handed to the pump.
type winClose struct {
	tb uint64
	// at is when the pump asked for the closing packet. due is when that
	// packet was scheduled to be admitted: t0 + (ts-baseTS)/speedup on a
	// paced feed (the generator's stamp, independent of how late the pump
	// runs), and at itself on an unpaced one.
	at, due int64
	// lag is how far behind its schedule the pump was when it came for
	// the packet (paced only; 0 when it was early and had to wait).
	lag int64
}

// loopFeed replays a lap over and over, offsetting timestamps by the
// lap's length each time round so stream time keeps increasing and
// windows keep closing. It is the generator of the benchmark: it stamps
// laps and window closes as it hands packets out, and ends the stream at
// the first lap boundary where done says so.
type loopFeed struct {
	lap     *lap
	speedup float64 // <= 0: unpaced
	done    func(lapsDone int) bool
	// calib, when set, measures the host beside the laps (calib.go).
	calib  *calibrator
	calWin uint64 // the last window a paced feed ran a pass in

	i, laps int
	off     uint64
	started bool
	win     uint64
	base    uint64 // first packet's timestamp
	t0      int64  // wall stamp of the first hand-out
	marks   []lapMark
	closes  []winClose

	// chunk, when set (traced runs), receives the wall interval over which
	// each 512 consecutive packets were handed out.
	chunk    func(start, end int64, lap int)
	chunkAt  int64
	chunkCnt int
}

func newLoopFeed(l *lap, speedup float64, done func(lapsDone int) bool) *loopFeed {
	return &loopFeed{lap: l, speedup: speedup, done: done, calWin: ^uint64(0)}
}

// Next implements trace.Feed.
func (f *loopFeed) Next() (trace.Packet, bool) {
	if f.i == len(f.lap.pkts) {
		f.laps++
		f.marks = append(f.marks, f.mark(now()))
		if f.done(f.laps) {
			return trace.Packet{}, false
		}
		f.i = 0
		f.off += f.lap.seconds * 1e9
	}
	p := f.lap.pkts[f.i]
	f.i++
	p.Time += f.off
	w := p.Time / 1e9
	if !f.started {
		f.started = true
		f.base, f.win, f.t0 = p.Time, w, now()
		f.marks = append(f.marks, f.mark(f.t0))
		f.chunkAt = f.t0
	} else if w != f.win {
		if f.speedup <= 0 {
			// The pump is between packets and the window's rows have not
			// been flushed yet: the pass delays nothing that is timed.
			f.chunkAt += f.calib.pass(false)
		}
		c := winClose{tb: f.win, at: now()}
		c.due = c.at
		if f.speedup > 0 {
			c.due = f.dueAt(p.Time)
			if c.lag = c.at - c.due; c.lag < 0 {
				c.lag = 0
			}
		}
		f.closes = append(f.closes, c)
		f.win = w
	}
	if f.speedup > 0 && w%calibEvery == 0 && w != f.calWin && p.Time%1e9 >= 2e8 {
		// Paced: a pass a fifth of the way into the window. The pump
		// falls behind its schedule by the length of the pass and has
		// caught up well before the window closes.
		f.calWin = w
		f.chunkAt += f.calib.pass(true)
	}
	if f.chunk != nil {
		if f.chunkCnt++; f.chunkCnt == 512 {
			t := now()
			f.chunk(f.chunkAt, t, f.laps)
			f.chunkAt, f.chunkCnt = t, 0
		}
	}
	return p, true
}

func (f *loopFeed) mark(wall int64) lapMark {
	m := lapMark{wall: wall, cpu: cpuSeconds()}
	if f.calib != nil {
		m.calCPU, m.calStall = f.calib.cpuNS, f.calib.stallNS
	}
	return m
}

// dueAt is the wall stamp at which a packet with timestamp ts is
// scheduled under the feed's speedup — the same schedule the engine's
// pacer keeps, computed here from the generator's own origin.
func (f *loopFeed) dueAt(ts uint64) int64 {
	return f.t0 + int64(float64(ts-f.base)/f.speedup)
}
