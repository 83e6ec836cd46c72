package main

import (
	"math"
	"runtime"
	"syscall"
	"unsafe"
)

// Host calibration. The hosts this benchmark runs on are small VMs beside
// other tenants: code that touches memory loses a fifth to a half of its
// speed for seconds to minutes at a time, and two runs of the same binary
// ten minutes apart differ by more than any bound worth setting. A run's
// own laps cannot tell a slow host from a slow program; a fixed piece of
// work timed beside them can. The calibrator is that work: a hand-written
// GROUP BY of 65 536 fixed keys into a Go map, a few milliseconds a pass,
// the same in every run of every workload and seed. It belongs to the
// benchmark, so no change to the engine can move it.
//
// The feed runs the passes, on the pump's goroutine, between two packets:
// an unpaced feed at every window close (the window's rows are not flushed
// yet, the subscribers idle), a paced one early in every calibEvery-th
// window, once the previous window's rows are out: the packet path is a
// few per cent of a core, so the milliseconds the pump falls behind its
// schedule are made up long before the window closes (a pass on a
// goroutine of its own was tried: it starts cold after every sleep and its
// median flips between two levels from run to run). Beside the gsqd daemon
// the sampling goroutine runs them, four a second. The run's host speed is
// calibNominalMS over the median pass, raised to calibExposure, and the
// workloads report their timings at nominal host speed: measured x speed
// for a time, measured / speed for a rate. The log carries the measured
// figures and the speed beside them.

const (
	calibKeys = 1 << 16
	// calibNominalMS is a pass on the seed host with quiet neighbours. It
	// only fixes the scale on which normalised figures are printed — with
	// it they read as what the seed host measures on a good day.
	calibNominalMS = 3.5
	// calibExposure is the share of the pass's slow-down, in logarithms,
	// that the workloads suffer beside it. The pass is nothing but cache
	// misses and loses more than they do. Fitted on the seed host over
	// four series of ten runs of each workload that spanned slow stretches
	// (RESULTS.md): a series' best exponent lies between 0.5 and 1.2 with
	// the workload and the stretch, and 0.7 leaves the smallest worst case.
	calibExposure = 0.7
	// calibEvery is the number of windows from one pass to the next on a
	// paced feed.
	calibEvery = 5
)

type calibAgg struct{ sum, n uint64 }

type calibrator struct {
	keys []uint64
	tab  map[uint64]calibAgg
	ms   []float64 // CPU milliseconds of each timed pass

	// Cumulative cost of the passes, for the laps to leave out: CPU
	// nanoseconds of every pass, and wall nanoseconds of the passes that
	// held up an unpaced feed.
	cpuNS, stallNS int64
}

func newCalibrator() *calibrator {
	c := &calibrator{keys: make([]uint64, calibKeys), tab: make(map[uint64]calibAgg, calibKeys)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range c.keys { // splitmix64: distinct, scattered, the same every time
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		c.keys[i] = z ^ z>>31
	}
	c.work() // grow the map to size outside any timing
	return c
}

func (c *calibrator) work() {
	clear(c.tab)
	for r := 0; r < 2; r++ { // every group is created once and found once
		for i, k := range c.keys {
			a := c.tab[k]
			a.sum += uint64(i)
			a.n++
			c.tab[k] = a
		}
	}
}

// threadCPU is the calling thread's CPU time in nanoseconds, from the
// thread's CPU clock. (getrusage's thread times advance a scheduler tick,
// 4 ms, at a time.)
func threadCPU() int64 {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return ts.Nano()
}

// pass runs the work on the calling goroutine and records what it cost. A
// pass is timed in CPU time of its own thread, which counts the cycles lost
// to cache misses and none of the time the thread was descheduled — beside
// the daemon and its readers there are more threads than cores. An unpaced
// pump never rests, and its pass holds up work whose wall time is measured,
// so the pass comes off the lap's wall time as well as off its CPU time. A
// rested caller — a paced pump, the sampler of the daemon — has slept since
// the last pass and finds the table evicted and the core asleep: it runs
// the work once for warmth and times the second go. A nil calibrator does
// nothing.
func (c *calibrator) pass(rested bool) (wallNS int64) {
	if c == nil {
		return 0
	}
	runtime.LockOSThread()
	w0, t0 := now(), threadCPU()
	t1 := t0
	if rested {
		c.work()
		t1 = threadCPU()
	}
	c.work()
	t2 := threadCPU()
	wallNS = now() - w0
	runtime.UnlockOSThread()
	c.ms = append(c.ms, float64(t2-t1)/1e6)
	c.cpuNS += t2 - t0
	if !rested {
		c.stallNS += wallNS
	}
	return wallNS
}

// speed is the host's speed over the run against the nominal host, as a
// workload sees it: above 1 the host was faster, below 1 slower. Without
// passes it is 1.
func (c *calibrator) speed() float64 {
	if c == nil || len(c.ms) == 0 {
		return 1
	}
	return math.Pow(calibNominalMS/median(c.ms), calibExposure)
}
