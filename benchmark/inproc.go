package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"streamop/internal/engine"
	"streamop/internal/overload"
	"streamop/internal/trace"
	"streamop/internal/tuple"
)

// ringSize is the source ring every engine in the benchmark gets: gsqd's
// default.
const ringSize = 4096

// querySpec is one standing query of a workload.
type querySpec struct {
	name, src, via string
	quota          overload.Quota
	// residue is the k of a selection tenant's WHERE srcIP % fanMod <> k,
	// for the reference to apply the same filter.
	residue uint64
	buffer  int // subscription buffer; 0 is the engine's default (256 rows)
	// subscribe attaches one blocking subscriber whose consumer digests
	// the rows; queries without one still run (their rows go nowhere).
	subscribe bool
	// latency marks the tenants whose window completions define
	// deliver_ms (the last of them to finish a window sets its time).
	latency bool
}

// consumer drains one subscription on its own goroutine, as a tenant
// would: it fingerprints the rows and stamps when each window's last row
// arrived.
type consumer struct {
	spec querySpec
	sub  *engine.Subscription
	// keep reports whether a row of window tb belongs to the checked
	// range; nil keeps everything.
	keep func(tb uint64) bool

	rows   int64
	dig    digest
	winTB  []uint64
	winAt  []int64
	adjSum map[uint64]float64 // per-window Σ of the last column (sampling workloads)

	// Traced runs only: receive stamps of every sampleEvery-th row, to
	// pair with the OnRow stamps the pump takes for the same rows.
	traced bool
	recvAt []int64
}

// sampleEvery thins the per-row OnRow/receive stamps of a traced run.
const sampleEvery = 16

func (c *consumer) run(wg *sync.WaitGroup) {
	defer wg.Done()
	ch := c.sub.C()
	const none = ^uint64(0)
	cur := none
	var stamp, stampRows int64
	last := 0
	for {
		var row tuple.Tuple
		var ok bool
		select {
		case row, ok = <-ch:
		default:
			// Caught up with the pump: whatever arrived last has arrived
			// by now. A window's last row is always followed by this
			// branch, unless the consumer is backlogged into the next
			// window — then the row's own processing time stands in.
			stamp, stampRows = now(), c.rows
			row, ok = <-ch
		}
		if !ok {
			break
		}
		if tb := row[0].AsUint(); tb != cur {
			if cur != none {
				if stampRows != c.rows {
					stamp = now()
				}
				c.winTB, c.winAt = append(c.winTB, cur), append(c.winAt, stamp)
			}
			cur = tb
			last = len(row) - 1
		}
		c.rows++
		if c.traced && c.rows%sampleEvery == 0 {
			c.recvAt = append(c.recvAt, now())
		}
		if c.keep == nil || c.keep(cur) {
			c.dig.add(rowHash(row))
		}
		if c.adjSum != nil {
			c.adjSum[cur] += row[last].AsFloat()
		}
	}
	if cur != none {
		c.winTB, c.winAt = append(c.winTB, cur), append(c.winAt, now())
	}
}

// churn is the control-plane loop: install then uninstall a throw-away
// tenant once per period while the stable tenants stream.
type churn struct {
	spec   querySpec
	period time.Duration
}

// sessionOpts configures one in-process session the way gsqd deploys it:
// collector attached, nothing else.
type sessionOpts struct {
	seed    uint64 // seeds every query's stateful functions
	speedup float64
	queries []querySpec
	churn   *churn
	keep    func(tb uint64) bool
	adjSum  bool // track per-window Σ adjlen on every consumer
	rec     *recorder
	// Ladder variants: noCollector drops the telemetry collector,
	// checkpointDir enables SetCheckpoint{EveryWindows: 4}.
	noCollector   bool
	checkpointDir string
	// wrap, when set, stands between the loop feed and the engine.
	wrap func(trace.Feed) trace.Feed
}

// sessionResult is what one session leaves behind.
type sessionResult struct {
	feed      *loopFeed
	consumers []*consumer
	packets   int64
	// failed counts ring drops, source shed, subscription drops, detached
	// subscribers, failed queries and control-plane errors.
	failed    int64
	requests  int64 // control-plane calls made
	quotaShed map[string]uint64
	installMS []float64
	uninstMS  []float64
	nodes     []engine.NodeStats
	mem       memDelta
	wall      float64 // seconds from first hand-out to session end
	pump      map[string]*pumpSide
}

// pumpSide is what a traced run's OnRow callback records for one query,
// on the pump goroutine: when every sampleEvery-th row left the operator,
// and when the last row of each window did.
type pumpSide struct {
	n      int64
	sent   []int64
	lastAt map[uint64]int64
}

type memDelta struct {
	allocBytes uint64
	gcPauseMS  float64
}

func readMem() (uint64, float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, float64(m.PauseTotalNs) / 1e6
}

// runSession drives feed through a session until the feed ends.
func runSession(feed *loopFeed, o sessionOpts) (*sessionResult, error) {
	e, err := newEngine(o.noCollector)
	if err != nil {
		return nil, err
	}
	if o.checkpointDir != "" {
		if err := e.SetCheckpoint(engine.CheckpointConfig{Dir: o.checkpointDir, EveryWindows: 4}); err != nil {
			return nil, err
		}
	}
	res := &sessionResult{feed: feed, quotaShed: map[string]uint64{}, pump: map[string]*pumpSide{}}
	var handles []*engine.QueryHandle
	var wg sync.WaitGroup
	for _, q := range o.queries {
		opts := engine.InstallOptions{Via: q.via, Seed: o.seed, Block: true, Quota: q.quota, Buffer: q.buffer}
		if o.rec != nil && q.subscribe {
			// The pump-side half of the deliver span: stamp the row as it
			// leaves the operator.
			ps := &pumpSide{lastAt: map[uint64]int64{}}
			res.pump[q.name] = ps
			opts.OnRow = func(row tuple.Tuple) error {
				t := now()
				ps.lastAt[row[0].AsUint()] = t
				if ps.n++; ps.n%sampleEvery == 0 {
					ps.sent = append(ps.sent, t)
				}
				return nil
			}
		}
		t := now()
		h, err := e.Install(q.name, q.src, opts)
		if err != nil {
			return nil, fmt.Errorf("installing %s: %w", q.name, err)
		}
		o.rec.add("engine.install", t, now(), -1, 0)
		handles = append(handles, h)
		if q.subscribe {
			c := &consumer{spec: q, sub: h.Subscribe(), keep: o.keep, traced: o.rec != nil}
			if o.adjSum {
				c.adjSum = map[uint64]float64{}
			}
			res.consumers = append(res.consumers, c)
			wg.Add(1)
			go c.run(&wg)
		}
	}
	alloc0, pause0 := readMem()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var src trace.Feed = feed
	if o.wrap != nil {
		src = o.wrap(feed)
	}
	if err := e.StartWith(ctx, src, engine.StartOptions{Speedup: o.speedup}); err != nil {
		return nil, err
	}
	var churnWG sync.WaitGroup
	stopChurn := make(chan struct{})
	if o.churn != nil {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			res.runChurn(e, o.churn, o.seed, o.rec, stopChurn)
		}()
	}
	err = e.Wait()
	end := now()
	close(stopChurn)
	churnWG.Wait()
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	alloc1, pause1 := readMem()
	res.mem = memDelta{alloc1 - alloc0, pause1 - pause0}
	res.wall = float64(end-feed.t0) / 1e9
	res.packets = e.Packets()
	res.failed += int64(e.Drops()) + int64(len(e.Failures()))
	for _, g := range e.Overload() {
		res.failed += int64(g.Shed + g.Dropped)
	}
	for _, h := range handles {
		res.failed += int64(h.Dropped()) + int64(h.DetachedSubs())
		if h.Err() != nil {
			res.failed++
		}
		if s := h.QuotaShed(); s > 0 {
			res.quotaShed[h.Name()] = s
		}
	}
	for _, n := range e.Nodes() {
		res.nodes = append(res.nodes, n.Stats())
	}
	return res, nil
}

// runChurn installs and uninstalls the throw-away tenant once per period
// until stop closes. Errors count as failed requests; a session that has
// already ended is not an error.
func (r *sessionResult) runChurn(e *engine.Engine, c *churn, seed uint64, rec *recorder, stop <-chan struct{}) {
	// The first call comes half a period in, so that no call falls on a
	// lap boundary — a paced lap is one period long, and the session ends
	// on one. (Engine.Install racing the session's end can block for
	// ever: session.do may queue its command after finish has emptied
	// the queue.)
	select {
	case <-stop:
		return
	case <-time.After(c.period / 2):
	}
	tick := time.NewTicker(c.period)
	defer tick.Stop()
	for id := uint64(1); ; id++ {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		t := now()
		_, err := e.Install(c.spec.name, c.spec.src, engine.InstallOptions{Via: c.spec.via, Seed: seed})
		t1 := now()
		if err == nil {
			err = e.Uninstall(c.spec.name)
		}
		t2 := now()
		if errors.Is(err, engine.ErrSessionClosed) {
			return // the session ended under the call
		}
		r.requests += 2
		if err != nil {
			r.failed++
			continue
		}
		r.installMS = append(r.installMS, float64(t1-t)/1e6)
		r.uninstMS = append(r.uninstMS, float64(t2-t1)/1e6)
		p := rec.add("engine.install", t, t1, -1, id)
		rec.add("engine.uninstall", t1, t2, p, id)
	}
}

// busyShare is a node's busy time over the session's wall time.
func (r *sessionResult) busyShare(pick func(engine.NodeStats) bool) float64 {
	var busy time.Duration
	for _, n := range r.nodes {
		if pick(n) {
			busy += n.Busy
		}
	}
	if r.wall <= 0 {
		return 0
	}
	return busy.Seconds() / r.wall
}
