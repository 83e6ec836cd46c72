package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"streamop/internal/trace"
)

// gsqd_sse drives the daemon itself: two blocking tenants over one
// aggregating tap, two SSE readers (no more: two cores), and a
// throw-away query installed and deleted over HTTP every churnEvery.
const (
	gsqdTenants  = 2
	gsqdWarmup   = 2 * time.Second
	churnEvery   = 200 * time.Millisecond
	gsqdTap      = `SELECT tb, srcIP, destIP, sum(len) AS bytes, count(*) AS cnt FROM PKT GROUP BY time/1 AS tb, srcIP, destIP`
	gsqdTenantQ  = `SELECT tb, srcIP, destIP, bytes, cnt FROM tap`
	gsqdChurnQ   = `SELECT tb, srcIP, bytes FROM tap WHERE srcIP % 8 = 7`
	checkWindows = 3 // complete windows per connection held against the reference
)

// daemon is one running gsqd child.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	stderr  *bytes.Buffer
	startMS float64 // spawn to /healthz ok
	done    chan error

	stopOnce sync.Once
	stopErr  error
}

var listenRE = regexp.MustCompile(`listening on (http://[0-9.]+:[0-9]+)`)

// buildGsqd compiles cmd/gsqd into dir.
func buildGsqd(cfg runConfig, dir string) (string, error) {
	bin := filepath.Join(dir, "gsqd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/gsqd")
	cmd.Dir = cfg.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/gsqd: %w\n%s", err, out)
	}
	return bin, nil
}

// startGsqd spawns the daemon on an ephemeral port with GOMAXPROCS
// pinned and waits until /healthz answers.
func startGsqd(bin, feed string, seed uint64) (*daemon, error) {
	t := now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-feed", feed, "-speedup", "0", "-loop",
		"-duration", "1000000", "-seed", fmt.Sprint(seed))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, stderr: &bytes.Buffer{}, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			d.stderr.WriteString(sc.Text() + "\n")
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		d.done <- cmd.Wait()
	}()
	select {
	case d.base = <-addr:
	case err := <-d.done:
		return nil, fmt.Errorf("gsqd exited before listening: %v\n%s", err, d.stderr)
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, fmt.Errorf("gsqd did not print its listening line within 10 s")
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("gsqd /healthz not ok within 5 s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.startMS = float64(now()-t) / 1e6
	return d, nil
}

// stop drains the daemon with SIGTERM and waits for it; a daemon that
// ignores the signal for 10 s is killed. Safe to call more than once.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case d.stopErr = <-d.done:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			d.stopErr = fmt.Errorf("gsqd ignored SIGTERM for 10 s and was killed: %v", <-d.done)
		}
	})
	return d.stopErr
}

// httpStats counts control-plane requests and the ones that failed.
type httpStats struct {
	sent, failed atomic.Int64
}

// call makes one request and returns the body and the wall time it took.
// Any transport error or status outside 2xx counts as failed.
func (d *daemon) call(st *httpStats, rec *recorder, method, path string, body any) ([]byte, float64, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	st.sent.Add(1)
	t := now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		st.failed.Add(1)
		return nil, 0, err
	}
	first := now()
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := now()
	p := rec.add("gsqd.http "+method+" "+path, t, end, -1, uint64(st.sent.Load()))
	rec.add("gsqd.http.first_byte", t, first, p, uint64(st.sent.Load()))
	if err == nil && resp.StatusCode/100 != 2 {
		err = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
	}
	if err != nil {
		st.failed.Add(1)
	}
	return out, float64(end-t) / 1e6, err
}

func (d *daemon) packets(st *httpStats) (int64, error) {
	b, _, err := d.call(st, nil, "GET", "/healthz", nil)
	if err != nil {
		return 0, err
	}
	var h struct {
		Packets int64 `json:"packets"`
	}
	if err := json.Unmarshal(b, &h); err != nil {
		return 0, err
	}
	return h.Packets, nil
}

// sseConn is one subscriber connection and what it saw.
type sseConn struct {
	name string
	rows atomic.Int64
	size atomic.Int64

	mu      sync.Mutex
	err     error
	wins    []sseWindow // one per window seen, in order
	checked []refRow    // rows of the first complete windows
}

type sseWindow struct {
	tb          uint64
	first, last int64
	rows        int64
}

// read consumes the stream until ctx is cancelled. Frames must be row
// events with ids counting from 0; anything else is an error, as is the
// server ending the stream.
func (c *sseConn) read(ctx context.Context, d *daemon, rec *recorder, id uint64) {
	err := func() error {
		req, err := http.NewRequestWithContext(ctx, "GET", d.base+"/queries/"+c.name+"/rows", nil)
		if err != nil {
			return err
		}
		t := now()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET rows: %s", resp.Status)
		}
		root := rec.add("gsqd.sse "+c.name, t, t, -1, id)
		firstByte := false
		rd := newSSEReader(resp.Body)
		var next uint64
		var w sseWindow
		flush := func() {
			if w.rows > 0 {
				c.mu.Lock()
				c.wins = append(c.wins, w)
				c.mu.Unlock()
				rec.add("gsqd.sse.window_frames", w.first, w.last, root, w.tb)
			}
		}
		defer flush()
		for {
			f, err := rd.next()
			if err != nil {
				return err
			}
			at := now()
			if !firstByte {
				firstByte = true
				rec.add("gsqd.sse.first_byte", t, at, root, id)
			}
			if f.event != "row" || !f.hasID || f.id != next {
				return fmt.Errorf("unexpected frame: event %q id %d (has %v), want row %d", f.event, f.id, f.hasID, next)
			}
			next++
			tb, ok := jsonUint(f.data, "tb")
			if !ok {
				return fmt.Errorf("row without tb: %s", f.data)
			}
			if tb != w.tb || w.rows == 0 {
				flush()
				w = sseWindow{tb: tb, first: at}
			}
			w.last = at
			w.rows++
			// The first window is cut short by the subscription's start;
			// the next checkWindows are complete and kept for checking.
			if n := len(c.wins); n >= 1 && n <= checkWindows {
				src, ok1 := jsonUint(f.data, "srcIP")
				dst, ok2 := jsonUint(f.data, "destIP")
				by, ok3 := jsonUint(f.data, "bytes")
				cn, ok4 := jsonUint(f.data, "cnt")
				if !ok1 || !ok2 || !ok3 || !ok4 {
					return fmt.Errorf("malformed row: %s", f.data)
				}
				c.checked = append(c.checked, refRow{tb, src<<32 | dst, by, cn})
			}
			c.rows.Add(1)
			c.size.Add(int64(f.size))
		}
	}()
	if ctx.Err() != nil {
		err = nil // we hung up, not the server
	}
	c.mu.Lock()
	c.err = err
	c.mu.Unlock()
}

// gsqdSample is one reading of the running daemon's counters.
type gsqdSample struct {
	at      int64
	rows    int64
	bytes   int64
	packets int64
	cpu     float64
}

type gsqdRun struct {
	d        *daemon
	conns    []*sseConn
	st       *httpStats
	a, b     gsqdSample   // start and end of the measured stretch
	samples  []gsqdSample // one a second between them, a and b included
	installs []float64    // ms, throw-away query installs
	scrapes  []float64    // ms, GET /metrics
	rss      float64
	calib    *calibrator
	// pktsPerRow is how many tap packets stand behind one received row,
	// every connection counted: a constant of the feed, taken from the
	// reference's windows.
	pktsPerRow float64
	heap       [2]heapStats
	failed     int64
}

func (r *gsqdRun) sample() (gsqdSample, error) {
	var s gsqdSample
	var err error
	if s.packets, err = r.d.packets(r.st); err != nil {
		return s, err
	}
	if s.cpu, err = childCPUSeconds(r.d.cmd.Process.Pid); err != nil {
		return s, err
	}
	for _, c := range r.conns {
		s.rows += c.rows.Load()
		s.bytes += c.size.Load()
	}
	s.at = now()
	return s, nil
}

// measure drives a started daemon: installs the tenants, opens the SSE
// readers, churns a throw-away query, and samples the counters either
// side of the measured stretch. It leaves the daemon running.
func (r *gsqdRun) measure(seconds float64, warmup time.Duration, rec *recorder, deep bool) error {
	d, st := r.d, r.st
	for i := 0; i < gsqdTenants; i++ {
		name := fmt.Sprintf("t%d", i)
		if _, _, err := d.call(st, rec, "POST", "/queries", map[string]any{
			"name": name, "query": gsqdTenantQ, "via": gsqdTap, "block": true,
		}); err != nil {
			return err
		}
		r.conns = append(r.conns, &sseConn{name: name})
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
	}()
	for i, c := range r.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.read(ctx, d, rec, uint64(i))
		}()
	}
	wg.Add(1)
	go func() { // the control-plane loop
		defer wg.Done()
		tick := time.NewTicker(churnEvery)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			_, ms, err := d.call(st, rec, "POST", "/queries", map[string]any{"name": "churn", "query": gsqdChurnQ})
			if err != nil {
				logf("churn install: %v", err)
				continue
			}
			r.installs = append(r.installs, ms)
			if _, _, err := d.call(st, rec, "DELETE", "/queries/churn", nil); err != nil {
				logf("churn delete: %v", err)
			}
		}
	}()
	time.Sleep(warmup)
	var err error
	if deep {
		if r.heap[0], err = d.heap(st); err != nil {
			return err
		}
	}
	if r.a, err = r.sample(); err != nil {
		return err
	}
	r.samples = append(r.samples, r.a)
	for left := time.Duration(seconds * float64(time.Second)); left > 0; {
		step := min(left, time.Second)
		// Four calibration passes a second measure the host beside the
		// daemon (calib.go), from this goroutine, which otherwise sleeps.
		for q := 0; q < 4; q++ {
			t := now()
			r.calib.pass(true)
			time.Sleep(step/4 - time.Duration(now()-t))
		}
		left -= step
		if deep {
			if _, ms, err := d.call(st, rec, "GET", "/metrics", nil); err == nil {
				r.scrapes = append(r.scrapes, ms)
			}
		}
		if r.b, err = r.sample(); err != nil {
			return err
		}
		r.samples = append(r.samples, r.b)
	}
	if deep {
		if r.heap[1], err = d.heap(st); err != nil {
			return err
		}
	}
	if r.rss, err = peakRSSMB(d.cmd.Process.Pid); err != nil {
		return err
	}
	cancel()
	wg.Wait()
	for _, c := range r.conns {
		if c.err != nil {
			logf("CHECK FAILED sse %s: %v", c.name, c.err)
			r.failed++
		}
	}
	return nil
}

// heapStats are the two runtime.MemStats figures the benchmark wants from
// the daemon, read off /debug/pprof/heap?debug=1.
type heapStats struct {
	totalAlloc uint64
	pauseMS    float64
}

func (d *daemon) heap(st *httpStats) (heapStats, error) {
	var h heapStats
	b, _, err := d.call(st, nil, "GET", "/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return h, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			fmt.Sscan(v, &h.totalAlloc)
		}
		if v, ok := strings.CutPrefix(line, "# PauseNs = ["); ok {
			// The ring holds the last 256 pauses: enough for a run of
			// tens of seconds at gsqd's allocation rate.
			for _, f := range strings.Fields(strings.TrimSuffix(v, "]")) {
				var ns float64
				fmt.Sscan(f, &ns)
				h.pauseMS += ns / 1e6
			}
		}
	}
	if h.totalAlloc == 0 {
		return h, errors.New("no TotalAlloc in /debug/pprof/heap?debug=1")
	}
	return h, nil
}

// verify holds the rows of each connection's first complete windows
// against the naive reference over the same synthetic feed gsqd replays.
func (r *gsqdRun) verify(cfg runConfig) (attempted, failed int64, err error) {
	var maxTB uint64
	for _, c := range r.conns {
		for _, row := range c.checked {
			maxTB = max(maxTB, row.tb)
		}
	}
	feed, err := gsqdFeed(cfg, float64(maxTB+1))
	if err != nil {
		return 0, 0, err
	}
	pkts := trace.Collect(feed)
	tap := refTap(pkts, byPair)
	if len(tap) == 0 {
		return 0, 0, fmt.Errorf("the reference tap has no rows")
	}
	r.pktsPerRow = float64(len(pkts)) / float64(len(tap)*len(r.conns))
	if cfg.corrupt && len(tap) > 0 {
		tap[len(tap)-1].bytes++
	}
	byTB := map[uint64][]refRow{}
	for _, row := range tap {
		byTB[row.tb] = append(byTB[row.tb], row)
	}
	for _, c := range r.conns {
		// The first window seen is cut short by the subscription's start
		// and the last by its end; up to checkWindows in between are held
		// against the reference.
		n := min(checkWindows, len(c.wins)-2)
		if n < 1 {
			logf("CHECK FAILED sse %s: only %d windows seen, need 3", c.name, len(c.wins))
			failed++
			continue
		}
		var got, want digest
		for _, row := range c.checked {
			if row.tb <= c.wins[n].tb {
				got.add(hashWords(row.tb, row.key, row.bytes, row.cnt))
			}
		}
		for _, w := range c.wins[1 : 1+n] {
			for _, row := range byTB[w.tb] {
				want.add(hashWords(row.tb, row.key, row.bytes, row.cnt))
			}
		}
		attempted += int64(want.n)
		if m := got.mismatch(want); m != 0 {
			logf("CHECK FAILED sse %s: digest %+v, reference %+v", c.name, got, want)
			failed += m
		}
	}
	return attempted, failed, nil
}

// rates are the tap throughput and CPU cost between consecutive
// one-second samples — the daemon's counterpart of a lap. Packets are
// counted as rows received times the feed's packets per row (verify): the
// rows arrive steadily, while the daemon's own packet counter moves a
// window at a time — the flush holds the pump for the rest of the second
// — so that a second's packets are none, one window's or two.
func (r *gsqdRun) rates() (pktsPerS, cpuPerPkt []float64) {
	var pps, cpp []float64
	for i := 1; i < len(r.samples); i++ {
		a, b := r.samples[i-1], r.samples[i]
		if pk := float64(b.rows-a.rows) * r.pktsPerRow; pk > 0 {
			pps = append(pps, pk/(float64(b.at-a.at)/1e9))
			cpp = append(cpp, (b.cpu-a.cpu)/pk)
		}
	}
	return pps, cpp
}

// windowDeliveries are, per connection and window received inside the
// measured stretch, the milliseconds from the last row frame of the
// window before to the last row frame of this one: how long a tenant waits
// for its next complete window. The loop is closed and the tap unpaced —
// the pump flushes a window into the blocking subscriptions and takes no
// packet until the slower connection has drained it — so this is the time
// the daemon takes to deliver a window, which is what deliver_ms measures
// in process. (A window's first frame is no use as the start: the
// daemon's sockets buffer tens of thousands of rows, so one connection
// runs ahead of the other by whatever the reader goroutines' scheduling
// allows, and a span from the first frame anywhere to the last frame
// everywhere swings by a quarter from run to run with it.)
func (r *gsqdRun) windowDeliveries() []float64 {
	var ms []float64
	for _, c := range r.conns {
		// The last window seen is cut short by the subscription's end.
		for i := 1; i+1 < len(c.wins); i++ {
			if prev, w := c.wins[i-1], c.wins[i]; prev.last >= r.a.at && w.last <= r.b.at {
				ms = append(ms, float64(w.last-prev.last)/1e6)
			}
		}
	}
	return ms
}

// gsqdSetup is one timed set-up: build the daemon, spawn it, wait for
// /healthz.
func gsqdSetup(cfg runConfig) (*daemon, string, error) {
	dir, err := tmpDir(cfg, "gsqd-")
	if err != nil {
		return nil, "", err
	}
	bin, err := buildGsqd(cfg, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	d, err := startGsqd(bin, cfg.gsqdFeed(), cfg.seed)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return d, dir, nil
}

func runGsqd(cfg runConfig) (res *result, err error) {
	var d *daemon
	var dir string
	var setups []float64
	for moreSetup(setups, cfg.scale) {
		if d != nil {
			d.stop()
			os.RemoveAll(dir)
		}
		t := now()
		if d, dir, err = gsqdSetup(cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, float64(now()-t)/1e9)
	}
	// Whatever happens below, the child is drained and waited on.
	defer func() {
		if serr := d.stop(); serr != nil && err == nil {
			err = serr
		}
		os.RemoveAll(dir)
	}()
	setupS := median(setups)
	logf("set-up %.3f s (median of %d): go build, spawn, /healthz after %.1f ms", setupS, len(setups), d.startMS)
	if cfg.trace {
		return tracedGsqd(cfg, d)
	}
	r := &gsqdRun{d: d, st: &httpStats{}, calib: newCalibrator()}
	warm := time.Duration(float64(gsqdWarmup) * cfg.scaleWarm())
	if err := r.measure(cfg.seconds, warm, nil, false); err != nil {
		return nil, err
	}
	out := cfg.spec.newResult()
	if err := r.fill(cfg, out); err != nil {
		return nil, err
	}
	lat := r.windowDeliveries()
	if len(lat) == 0 {
		return nil, fmt.Errorf("no complete window inside the measured stretch")
	}
	p99, q, n, past := tail(lat)
	wall := float64(r.b.at-r.a.at) / 1e9
	pkts := float64(r.b.packets - r.a.packets)
	pps, cpp := r.rates()
	q1, med, q3 := quartiles(pps)
	c1, cmed, c3 := quartiles(cpp)
	l1, lmed, l3 := quartiles(lat)
	// The timings are reported at nominal host speed, as the in-process
	// workloads' are (calib.go); the log has them as measured.
	speed := r.calib.speed()
	out.set("setup_s", setupS)
	out.set("pkts_per_s", med/speed)
	out.set("cpu_s_per_mpkt", cmed*1e6*speed)
	out.set("deliver_ms_p50", lmed*speed)
	out.set("peak_rss_mb", r.rss)
	cq1, cmedMS, cq3 := quartiles(r.calib.ms)
	logf("gsqd_sse seed %d: %.0f rows/s over %d connections, %.0f tap pkts/s overall, %.2f s",
		cfg.seed, float64(r.b.rows-r.a.rows)/wall, len(r.conns), pkts/wall, wall)
	logf("  host speed %.3f of nominal: calibration pass median %.3f ms (q1 %.3f, q3 %.3f) over %d passes, nominal %.1f ms",
		speed, cmedMS, cq1, cq3, len(r.calib.ms), calibNominalMS)
	logf("  measured tap pkts/s per second: median %.0f (q1 %.0f, q3 %.0f)", med, q1, q3)
	logf("  measured gsqd cpu s/Mpkt per second: median %.4f (q1 %.4f, q3 %.4f); %.1f %% of one core overall", cmed*1e6, c1*1e6, c3*1e6, 100*(r.b.cpu-r.a.cpu)/wall)
	logf("  measured deliver_ms (a connection's wait from one complete window to the next) over %d windows: median %.1f ms (q1 %.1f, q3 %.1f), p%.1f %.1f (%d beyond)",
		n, lmed, l1, l3, q*100, p99, past)
	return out, nil
}

// fill runs the output checks and sets attempted/failed/correct.
func (r *gsqdRun) fill(cfg runConfig, out *result) error {
	attempted, failed, err := r.verify(cfg)
	if err != nil {
		return err
	}
	out.Attempted = attempted + r.st.sent.Load() + (r.b.packets - r.a.packets)
	out.Failed = failed + r.st.failed.Load() + r.failed
	out.Correct = out.Failed == 0
	return nil
}

// gsqdFeed names the synthetic tap the daemon replays. At full size it
// is the steady 100 k pps feed; the smoke test takes the bursty 10 k pps
// one, whose windows are a tenth the packets, so that a run of a second
// or two still sees whole windows.
func (c runConfig) gsqdFeed() string {
	if c.scale < 1 {
		return "bursty"
	}
	return "steady"
}

// gsqdFeed regenerates the first seconds of the daemon's feed, for the
// reference.
func gsqdFeed(cfg runConfig, seconds float64) (trace.Feed, error) {
	if cfg.gsqdFeed() == "bursty" {
		return trace.NewBursty(trace.DefaultBursty(cfg.seed, seconds))
	}
	return trace.NewSteady(trace.DefaultSteady(cfg.seed, seconds))
}

// scaleWarm shortens the warm-up with the rest of a scaled-down run.
func (c runConfig) scaleWarm() float64 {
	if c.scale < 1 {
		return 0.1
	}
	return 1
}
