package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"streamop/internal/checkpoint"
	"streamop/internal/engine"
	"streamop/internal/profile"
	"streamop/internal/telemetry"
	"streamop/internal/trace"
	"streamop/internal/tracing"
	"streamop/internal/tuple"
)

// stageOrder is the canonical per-node stage layout /debug/profile and
// PROFILE.json consumers (jq in CI) index positionally.
var stageOrder = []string{
	"dequeue", "kernel_groupby", "kernel_where", "kernel_args",
	"walk", "cleaning", "flush", "transfer",
}

func buildProfiledEngine(t *testing.T, c *telemetry.Collector) (*engine.Engine, *engine.Node, *engine.Node) {
	t.Helper()
	e, _ := engine.New(4096)
	if c != nil {
		e.SetCollector(c)
	}
	low, err := e.AddLowLevel("sampler", mustPlan(t, engSSQuery, trace.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	high, err := e.AddHighLevel("counter", low,
		mustPlan(t, "SELECT tb, count(*) FROM sampler GROUP BY tb as tb", low.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	return e, low, high
}

func TestProfilerReportAfterRun(t *testing.T) {
	e, low, _ := buildProfiledEngine(t, nil)
	p := profile.New()
	e.SetProfiler(p)
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 2, Duration: 4, Rate: 20000})
	if err := e.Run(feed); err != nil {
		t.Fatal(err)
	}

	rep := p.Report()
	if rep.TotalSelfNS <= 0 {
		t.Errorf("TotalSelfNS = %v, want > 0", rep.TotalSelfNS)
	}
	byName := profiledNodes(p)
	for _, want := range []string{"source", "sampler", "counter"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("report missing node %q (have %d nodes)", want, len(rep.Nodes))
		}
	}

	// Row counts mirror the node's stats, and the stages tile its busy
	// time: nothing the node did between its two busy-clock reads is
	// outside a stage but the calls around them.
	st := low.Stats()
	nr := byName["sampler"]
	deq := nr.Stages[profile.StageDequeue]
	if deq.RowsIn != st.TuplesIn {
		t.Errorf("sampler dequeue rows_in = %d, stats TuplesIn = %d", deq.RowsIn, st.TuplesIn)
	}
	wk := nr.Stages[profile.StageWalk]
	if wk.RowsIn != st.Operator.TuplesIn || wk.RowsOut != st.Operator.TuplesAccepted {
		t.Errorf("sampler walk rows %d → %d, operator TuplesIn %d TuplesAccepted %d",
			wk.RowsIn, wk.RowsOut, st.Operator.TuplesIn, st.Operator.TuplesAccepted)
	}
	fl := nr.Stages[profile.StageFlush]
	if fl.RowsOut != st.Operator.TuplesOut {
		t.Errorf("sampler flush rows_out = %d, operator TuplesOut = %d", fl.RowsOut, st.Operator.TuplesOut)
	}
	if cl := nr.Stages[profile.StageCleaning]; cl.RowsIn-cl.RowsOut != st.Operator.GroupsEvicted {
		t.Errorf("sampler cleaning %d → %d groups, operator GroupsEvicted %d", cl.RowsIn, cl.RowsOut, st.Operator.GroupsEvicted)
	}
	if busy := float64(st.Busy); nr.SelfNS <= 0 || nr.SelfNS > busy {
		t.Errorf("sampler SelfNS = %v, want in (0, busy %v]", nr.SelfNS, busy)
	}
	if nr.Windows == 0 || nr.Latency == nil {
		t.Errorf("sampler windows = %d latency = %v, want flushed windows with latency", nr.Windows, nr.Latency)
	}
	if nr.Groups <= 0 || nr.GroupBytes <= 0 {
		t.Errorf("sampler occupancy groups=%d bytes=%d, want > 0", nr.Groups, nr.GroupBytes)
	}

	// The text tree renders every active node and stage.
	out := rep.Render()
	for _, want := range []string{"sampler", "counter", "walk", "window latency"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

// TestDebugProfileEndpoint round-trips /debug/profile through a real
// handler and checks the JSON schema consumers depend on: top-level
// elapsed_ns/nodes, and exactly NumStages stages per node in canonical
// order.
func TestDebugProfileEndpoint(t *testing.T) {
	c := telemetry.New()
	e, _, _ := buildProfiledEngine(t, c)
	e.SetProfiler(profile.New())
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 2, Duration: 3, Rate: 20000})
	if err := e.Run(feed); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Get(srv.URL + "/debug/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	// Like /debug/plan and /debug/state, the payload keys each source's
	// data by source name: the engine's report lives under "engine".
	var body struct {
		Engine struct {
			ElapsedNS int64 `json:"elapsed_ns"`
			Nodes     []struct {
				Node   string  `json:"node"`
				Shard  int     `json:"shard"`
				SelfNS float64 `json:"self_ns"`
				Stages []struct {
					Stage  string `json:"stage"`
					RowsIn int64  `json:"rows_in"`
				} `json:"stages"`
			} `json:"nodes"`
		} `json:"engine"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	rep := body.Engine
	if rep.ElapsedNS <= 0 {
		t.Errorf("elapsed_ns = %d, want > 0", rep.ElapsedNS)
	}
	if len(rep.Nodes) < 3 {
		t.Fatalf("nodes = %d, want >= 3 (source, sampler, counter)", len(rep.Nodes))
	}
	for _, n := range rep.Nodes {
		if len(n.Stages) != len(stageOrder) {
			t.Fatalf("node %s has %d stages, want %d", n.Node, len(n.Stages), len(stageOrder))
		}
		for i, s := range n.Stages {
			if s.Stage != stageOrder[i] {
				t.Errorf("node %s stage[%d] = %q, want %q", n.Node, i, s.Stage, stageOrder[i])
			}
		}
	}
}

// TestDebugProfileWithoutProfiler confirms the endpoint degrades to an
// empty report instead of failing when profiling is off.
func TestDebugProfileWithoutProfiler(t *testing.T) {
	c := telemetry.New()
	buildProfiledEngine(t, c)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if _, ok := body["engine"]["nodes"]; !ok {
		t.Error("empty report missing engine.nodes")
	}
}

// TestDebugProfileConcurrentScrape hammers /debug/profile while the engine
// runs, so the race detector checks the atomics-only contract of Report.
func TestDebugProfileConcurrentScrape(t *testing.T) {
	c := telemetry.New()
	e, _, _ := buildProfiledEngine(t, c)
	p := profile.New()
	e.SetProfiler(p)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := srv.Client().Get(srv.URL + "/debug/profile")
				if err != nil {
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}

	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 2, Duration: 4, Rate: 30000})
	err := e.Run(feed)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if p.Report().TotalSelfNS <= 0 {
		t.Error("no self time attributed after concurrent-scrape run")
	}
}

// TestProfileRunParallelShards checks that a sharded partial-aggregation
// node reports per-shard profiles with non-zero fold costs.
func TestProfileRunParallelShards(t *testing.T) {
	e, _ := engine.New(1024)
	plan := mustPlan(t, "SELECT tb, srcIP, count(*), sum(len) FROM PKT GROUP BY time/1 as tb, srcIP", trace.Schema())
	pn, err := e.AddLowLevelPartialAgg("partial", plan, 64)
	if err != nil {
		t.Fatal(err)
	}
	pn.SetShards(2)
	p := profile.New()
	e.SetProfiler(p)
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 6, Duration: 3, Rate: 20000})
	if err := e.RunParallel(feed, 0); err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	shards := 0
	for _, n := range rep.Nodes {
		if n.Node == "partial" && n.Shard >= 0 {
			shards++
			if wk := n.Stages[profile.StageWalk]; wk.RowsIn <= 0 {
				t.Errorf("shard %d walk rows_in = %d, want > 0", n.Shard, wk.RowsIn)
			}
			if n.SelfNS <= 0 {
				t.Errorf("shard %d SelfNS = %v, want > 0", n.Shard, n.SelfNS)
			}
		}
	}
	if shards != 2 {
		t.Errorf("report has %d shard profiles, want 2", shards)
	}
}

// TestProfileRunParallelDequeue: every RunParallel worker's pops are
// charged to the source's dequeue stage, as the serial loop's are. An
// unpaced run drops nothing, so each selection node's ring yields every
// packet once, and a sharded node's rings split one copy of the stream.
func TestProfileRunParallelDequeue(t *testing.T) {
	e, _ := engine.New(1024)
	for _, name := range []string{"a", "b"} {
		if _, err := e.AddLowLevel(name, mustPlan(t, "SELECT time, len FROM PKT", trace.Schema())); err != nil {
			t.Fatal(err)
		}
	}
	plan := mustPlan(t, "SELECT tb, srcIP, count(*) FROM PKT GROUP BY time/1 as tb, srcIP", trace.Schema())
	pn, err := e.AddLowLevelPartialAgg("partial", plan, 64)
	if err != nil {
		t.Fatal(err)
	}
	pn.SetShards(2)
	p := profile.New()
	e.SetProfiler(p)
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 6, Duration: 1, Rate: 20000})
	if err := e.RunParallel(feed, 0); err != nil {
		t.Fatal(err)
	}
	deq := profiledNodes(p)["source"].Stages[profile.StageDequeue]
	if want := 3 * e.Packets(); e.Packets() == 0 || deq.RowsIn != want || deq.RowsOut != want {
		t.Errorf("source dequeue rows %d → %d, want %d (%d packets, two selection rings and one sharded stream)",
			deq.RowsIn, deq.RowsOut, want, e.Packets())
	}
	if deq.SelfNS <= 0 {
		t.Errorf("source dequeue self_ns = %v, want > 0", deq.SelfNS)
	}
}

// profiledNodes maps the report's nodes by name.
func profiledNodes(p *profile.Profiler) map[string]profile.NodeReport {
	byName := map[string]profile.NodeReport{}
	for _, n := range p.Report().Nodes {
		byName[n.Node] = n
	}
	return byName
}

// TestProfilesFollowTopology: a node's profile is attached where the node
// is registered and released where it is spliced out. A tap created by an
// install in mid-session is profiled, install/uninstall churn leaves no
// profile behind, and a name installed again starts from zero.
func TestProfilesFollowTopology(t *testing.T) {
	e, _ := engine.New(1024)
	p := profile.New()
	if err := e.SetProfiler(p); err != nil {
		t.Fatal(err)
	}
	feed := &infiniteFeed{passEvery: 10}
	if err := e.Start(context.Background(), feed); err != nil {
		t.Fatal(err)
	}
	h, err := e.Install("q", "SELECT srcIP, len FROM flows", engine.InstallOptions{Via: testVia})
	if err != nil {
		t.Fatal(err)
	}
	waitRows(t, h.Subscribe(), 5)
	// A row reaches the subscriber inside the step that emits it, before
	// the step's stages are charged: read the report once the step is over.
	settled := func(nodes map[string]profile.NodeReport) bool {
		q, ok := nodes["q"]
		return ok && q.Stages[profile.StageTransfer].RowsOut > 0
	}
	nodes := profiledNodes(p)
	for deadline := time.Now().Add(5 * time.Second); !settled(nodes) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		nodes = profiledNodes(p)
	}
	if tap, ok := nodes["flows"]; !ok || tap.Stages[profile.StageTransfer].RowsOut == 0 {
		t.Errorf("tap installed mid-session: in report %v, transfer %+v", ok, tap.Stages)
	}
	if q, ok := nodes["q"]; !ok || q.Stages[profile.StageTransfer].RowsOut == 0 {
		t.Errorf("query installed mid-session: in report %v, transfer %+v", ok, q.Stages)
	}

	for i := 0; i < 1000; i++ {
		if _, err := e.Install("churn", "SELECT len FROM flows", engine.InstallOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := e.Uninstall("churn"); err != nil {
			t.Fatal(err)
		}
	}
	if nodes := profiledNodes(p); len(nodes) != 3 {
		t.Errorf("after 1000 install/uninstall cycles the report holds %d nodes, want source, flows, q", len(nodes))
	}

	feed.stop.Store(true)
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	// Idle engine: the topology changes at once, and nothing runs between
	// the install and the report.
	if err := e.Uninstall("q"); err != nil {
		t.Fatal(err)
	}
	if nodes := profiledNodes(p); len(nodes) != 1 {
		t.Errorf("last query and its tap removed, report still holds %d nodes, want source alone", len(nodes))
	}
	if _, err := e.Install("q", "SELECT srcIP, len FROM flows", engine.InstallOptions{Via: testVia}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"q", "flows"} {
		n, ok := profiledNodes(p)[name]
		if !ok || n.SelfNS != 0 || n.Windows != 0 {
			t.Errorf("%s installed again: in report %v, self %vns, %d windows, want a profile from zero", name, ok, n.SelfNS, n.Windows)
		}
		for _, s := range n.Stages {
			if s.RowsIn != 0 || s.RowsOut != 0 {
				t.Errorf("%s installed again: stage %s inherited %d → %d rows", name, s.Stage, s.RowsIn, s.RowsOut)
			}
		}
	}
}

// instrumentOutcome is what a run computed: everything a profiler or a
// tracer must leave as it found it.
type instrumentOutcome struct {
	rows     map[string][]string
	stats    map[string]engine.NodeStats // Busy zeroed
	snapshot []byte                      // newest checkpoint, when the mode writes one
}

// runInstrumented runs the five sampling families and a partial-aggregation
// node (two shards under RunParallel) under a re-aggregating high-level
// node over the same feed, with attach applied to the engine first.
func runInstrumented(t *testing.T, mode string, attach func(*engine.Engine)) instrumentOutcome {
	t.Helper()
	e, sinks := buildSamplingEngine(t)
	low, err := e.AddLowLevelPartialAgg("partial", mustPlan(t,
		"SELECT tb, srcIP, sum(len) AS bytes, count(*) AS pkts FROM PKT GROUP BY time/1 as tb, srcIP",
		trace.Schema()), 64)
	if err != nil {
		t.Fatal(err)
	}
	low.SetShards(2)
	high, err := e.AddHighLevel("final", low.Base(), mustPlan(t,
		"SELECT tb2, srcIP, sum(bytes), sum(pkts) FROM partial GROUP BY tb/1 as tb2, srcIP", low.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	sink := &[]string{}
	sinks["final"] = sink
	high.Subscribe(func(row tuple.Tuple) error {
		*sink = append(*sink, fmtRow(row))
		return nil
	})
	if attach != nil {
		attach(e)
	}
	out := instrumentOutcome{rows: map[string][]string{}, stats: map[string]engine.NodeStats{}}
	switch mode {
	case "Run":
		err = e.Run(steadyFeed(t))
	case "Run/checkpointed":
		// Cancelled mid-stream, so the final snapshot holds open windows.
		dir := t.TempDir()
		if err := e.SetCheckpoint(engine.CheckpointConfig{Dir: dir, EveryWindows: 1, Keep: 2}); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if err = e.RunContext(ctx, &cancelAt{inner: steadyFeed(t), at: 23000, cancel: cancel}); errors.Is(err, context.Canceled) {
			err = nil
		}
		names, lerr := checkpoint.List(dir)
		if lerr != nil || len(names) == 0 {
			t.Fatalf("no snapshots written (err %v)", lerr)
		}
		if out.snapshot, lerr = os.ReadFile(filepath.Join(dir, names[len(names)-1])); lerr != nil {
			t.Fatal(lerr)
		}
	case "session":
		if err = e.Start(context.Background(), steadyFeed(t)); err == nil {
			err = e.Wait()
		}
	case "RunParallel":
		err = e.RunParallel(steadyFeed(t), 0)
	}
	if err != nil {
		t.Fatalf("%s: %v", mode, err)
	}
	for name, sink := range sinks {
		out.rows[name] = *sink
	}
	if mode == "RunParallel" {
		// Two shard replicas feed "final" in either order; its groups and
		// their sums do not depend on it, the order it meets them does.
		sort.Strings(out.rows["final"])
	}
	for _, n := range e.Nodes() {
		st := n.Stats()
		st.Busy = 0
		out.stats[st.Name] = st
	}
	return out
}

// TestInstrumentsChangeNothing: attaching the profiler, or a 1-in-100
// tracer (which follows the first low-level node, the CLEANING WHEN /
// CLEANING BY subset-sum query), changes nothing that is computed in any
// run mode — rows, operator stats, and the bytes of a checkpoint taken in
// mid-stream — and every trace ends in exactly one disposition.
func TestInstrumentsChangeNothing(t *testing.T) {
	for _, mode := range []string{"Run", "Run/checkpointed", "session", "RunParallel"} {
		want := runInstrumented(t, mode, nil)
		for name, rows := range want.rows {
			if len(rows) == 0 {
				t.Fatalf("%s: %s produced no rows; test has no power", mode, name)
			}
		}
		var tr *tracing.Tracer
		for _, ins := range []struct {
			name   string
			attach func(*engine.Engine)
		}{
			{"profiler", func(e *engine.Engine) { e.SetProfiler(profile.New()) }},
			{"tracer", func(e *engine.Engine) {
				tr = tracing.New(tracing.Config{Every: 100, Seed: 5})
				e.SetTracer(tr)
			}},
		} {
			t.Run(mode+"/"+ins.name, func(t *testing.T) {
				got := runInstrumented(t, mode, ins.attach)
				if !reflect.DeepEqual(got.rows, want.rows) {
					for name := range want.rows {
						if !reflect.DeepEqual(got.rows[name], want.rows[name]) {
							t.Errorf("%s: %d rows, bare run %d, or the same number and different", name, len(got.rows[name]), len(want.rows[name]))
						}
					}
				}
				if !reflect.DeepEqual(got.stats, want.stats) {
					t.Errorf("stats differ:\n  got  %+v\n  want %+v", got.stats, want.stats)
				}
				if !bytes.Equal(got.snapshot, want.snapshot) {
					t.Errorf("checkpoint payloads differ (%d bytes, bare run %d)", len(got.snapshot), len(want.snapshot))
				}
			})
		}
		if mode == "RunParallel" {
			continue // a parallel run detaches the tracer
		}
		sum := tr.Summary()
		var ended int64
		for _, n := range sum.Dispositions {
			ended += n
		}
		if sum.Started == 0 || sum.Started != sum.Finished || ended != sum.Finished {
			t.Errorf("%s: %d traces started, %d finished, %d dispositions", mode, sum.Started, sum.Finished, ended)
		}
	}
}
