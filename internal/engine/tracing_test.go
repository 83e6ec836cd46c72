package engine_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"streamop/internal/engine"
	"streamop/internal/gsql"
	"streamop/internal/telemetry"
	"streamop/internal/trace"
	"streamop/internal/tracing"
	"streamop/internal/tuple"
)

// buildSamplingPipeline assembles the paper topology used by the tracing
// and /debug tests: a selection low node feeding the subset-sum sampling
// operator, whose output aggregates into a second high node.
func buildSamplingPipeline(t *testing.T, ring int) (*engine.Engine, *engine.Node) {
	t.Helper()
	e, err := engine.New(ring)
	if err != nil {
		t.Fatal(err)
	}
	low := mustPlan(t, "SELECT time, srcIP, destIP, len, uts FROM PKT", trace.Schema())
	lowNode, err := e.AddLowLevel("sel", low)
	if err != nil {
		t.Fatal(err)
	}
	sample := mustPlan(t, `
SELECT tb, srcIP, UMAX(sum(len), ssthreshold()) AS adjlen
FROM sel
WHERE ssample(len, 100, 2, 10) = TRUE
GROUP BY time/1 as tb, srcIP, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`, lowNode.Schema())
	sampleNode, err := e.AddHighLevel("sample", lowNode, sample)
	if err != nil {
		t.Fatal(err)
	}
	roll := mustPlan(t, "SELECT tb2, count(*), sum(adjlen) FROM sample GROUP BY tb/2 as tb2",
		sampleNode.Schema())
	rollNode, err := e.AddHighLevel("rollup", sampleNode, roll)
	if err != nil {
		t.Fatal(err)
	}
	return e, rollNode
}

// TestTracingFullPipeline traces every packet (Every=1) through the full
// DAG and checks the provenance contract: at least one span per stage and
// exactly one terminal disposition per traced tuple.
func TestTracingFullPipeline(t *testing.T) {
	e, rollNode := buildSamplingPipeline(t, 4096)
	tr := tracing.New(tracing.Config{Every: 1, Seed: 3, MaxSpans: 1 << 20})
	e.SetTracer(tr)

	var rows int
	rollNode.Subscribe(func(tuple.Tuple) error { rows++; return nil })

	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 3, Duration: 3, Rate: 20000})
	if err := e.Run(feed); err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatal("pipeline emitted nothing")
	}

	sum := tr.Summary()
	if sum.Started == 0 {
		t.Fatal("no traces started")
	}
	if sum.Started != sum.Finished {
		t.Fatalf("started %d traces, finished %d — open traces leaked", sum.Started, sum.Finished)
	}
	var total int64
	for _, n := range sum.Dispositions {
		total += n
	}
	if total != sum.Finished {
		t.Errorf("disposition counts sum to %d, finished %d", total, sum.Finished)
	}
	if sum.Dispositions["where_rejected"] == 0 {
		t.Errorf("sampling WHERE rejected nothing: %v", sum.Dispositions)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace output is not a JSON array: %v", err)
	}

	stages := map[string]int{}
	dispPerTID := map[float64]int{}
	for _, ev := range events {
		switch ev["ph"] {
		case "X":
			stages[ev["name"].(string)]++
		case "i":
			dispPerTID[ev["tid"].(float64)]++
		}
	}
	for _, want := range []string{
		"ring_enqueue", "ring_dequeue", "where", "group_lookup",
		"sfun", "evict", "having", "emit", "transfer",
	} {
		if stages[want] == 0 {
			t.Errorf("no %q spans recorded (stages: %v)", want, stages)
		}
	}
	for tid, n := range dispPerTID {
		if n != 1 {
			t.Errorf("trace %v has %d dispositions, want exactly 1", tid, n)
		}
	}
	if len(dispPerTID) != int(sum.Finished) {
		t.Errorf("%d traces carry dispositions, summary says %d finished",
			len(dispPerTID), sum.Finished)
	}
}

// An estimating plan emits a window's rows a pass after HAVING admitted
// their groups (the estimator columns need every group's verdict first), so
// a group's traces must be staged when its row is emitted, not when HAVING
// passed: staged early, the first deferred row claimed the last group's
// traces and every other group's stayed open until stream_end.
func TestTracingEstimatePlanEmitsEveryTrace(t *testing.T) {
	e, err := engine.New(4096)
	if err != nil {
		t.Fatal(err)
	}
	n, err := e.AddLowLevel("est", mustPlan(t,
		"SELECT tb, srcIP, ESTIMATE sum(len) WITH ERROR AS vol FROM PKT GROUP BY time/1 AS tb, srcIP", trace.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	tr := tracing.New(tracing.Config{Every: 1, Seed: 3, MaxSpans: 1 << 16})
	if err := e.SetTracer(tr); err != nil {
		t.Fatal(err)
	}
	var rows int
	n.Subscribe(func(tuple.Tuple) error { rows++; return nil })
	const windows, groups, perGroup = 3, 5, 2
	var pkts []trace.Packet
	for w := 0; w < windows; w++ {
		for i := 0; i < groups*perGroup; i++ {
			pkts = append(pkts, trace.Packet{Time: uint64(w)*uint64(time.Second) + uint64(i), SrcIP: uint32(i % groups), Proto: 6, Len: 100})
		}
	}
	if err := e.Run(sliceFeed(pkts)); err != nil {
		t.Fatal(err)
	}
	if rows != windows*groups {
		t.Fatalf("%d rows emitted, want %d", rows, windows*groups)
	}
	sum := tr.Summary()
	if sum.Started != int64(len(pkts)) || sum.Finished != sum.Started {
		t.Fatalf("%d traces started, %d finished, over %d packets", sum.Started, sum.Finished, len(pkts))
	}
	if got := sum.Dispositions["emitted"]; got != sum.Started || len(sum.Dispositions) != 1 {
		t.Errorf("dispositions %v, want all %d traces emitted", sum.Dispositions, sum.Started)
	}
}

// A traced low-level node that panics mid-batch fails, and guardNode skips
// it from then on; the traces of the rows it never walked — after the
// panicking row, and in every later batch — still end, as node_failed,
// with exactly one disposition each.
func TestTracingFailedLowNodeFinishesEveryTrace(t *testing.T) {
	pkts := hopPackets(t)
	const limit = 1_500_000_000
	e, err := engine.New(4096)
	if err != nil {
		t.Fatal(err)
	}
	q, err := gsql.Parse(`SELECT uts, srcIP, len FROM PKT WHERE boom(uts) = TRUE`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gsql.Analyze(q, trace.Schema(), boomRegistry(t, limit))
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := e.AddLowLevel("doomed", plan)
	if err != nil {
		t.Fatal(err)
	}
	doomed.Subscribe(func(tuple.Tuple) error { return nil })
	tr := tracing.New(tracing.Config{Every: 7, Seed: 2, MaxSpans: 1 << 20})
	if err := e.SetTracer(tr); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(sliceFeed(pkts)); err != nil {
		t.Fatalf("run died with the query: %v", err)
	}
	if f := e.Failures(); len(f) != 1 || f[0].Node != "doomed" {
		t.Fatalf("failures = %+v, want the doomed node's panic", f)
	}
	sum := tr.Summary()
	if sum.Started < int64(len(pkts)/14) || sum.Finished != sum.Started {
		t.Fatalf("%d traces started, %d finished, over %d packets", sum.Started, sum.Finished, len(pkts))
	}
	if sum.Dispositions["emitted"] == 0 || sum.Dispositions["node_failed"] < sum.Started/4 {
		t.Errorf("dispositions %v: want traces emitted before the panic and node_failed after it", sum.Dispositions)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []tracing.Event
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	disps := map[int64]int{}
	for _, ev := range events {
		if ev.Name == "disposition" {
			disps[ev.TID]++
		}
	}
	for tid, n := range disps {
		if n != 1 {
			t.Errorf("trace %d has %d dispositions", tid, n)
		}
	}
	if int64(len(disps)) != sum.Started {
		t.Errorf("%d traces carry a disposition, %d started", len(disps), sum.Started)
	}
}

// TestTracingSampledSchedule checks that the 1-in-N mode traces roughly
// packets/N tuples and the overall span volume stays proportional.
func TestTracingSampledSchedule(t *testing.T) {
	e, rollNode := buildSamplingPipeline(t, 4096)
	tr := tracing.New(tracing.Config{Every: 100, Seed: 5})
	e.SetTracer(tr)
	rollNode.Subscribe(func(tuple.Tuple) error { return nil })

	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 5, Duration: 2, Rate: 20000})
	if err := e.Run(feed); err != nil {
		t.Fatal(err)
	}
	sum := tr.Summary()
	packets := float64(e.Packets())
	got := float64(sum.Started)
	if got < packets/200 || got > packets/50 {
		t.Errorf("traced %v of %v packets with Every=100", got, packets)
	}
	if sum.Started != sum.Finished {
		t.Errorf("started %d, finished %d", sum.Started, sum.Finished)
	}
}

// TestRunParallelIgnoresTracer: "RunParallel ignores tracing" has to be
// literally true, because a tracer is one goroutine's to use and a parallel
// run has one per node. (Node.emit used to take the tracer's emitting set
// from every node's goroutine: a data race between the two levels.)
func TestRunParallelIgnoresTracer(t *testing.T) {
	e, rollNode := buildSamplingPipeline(t, 4096)
	tr := tracing.New(tracing.Config{Every: 100, Seed: 3, MaxSpans: 1 << 20})
	if err := e.SetTracer(tr); err != nil {
		t.Fatal(err)
	}
	rows := 0
	rollNode.Subscribe(func(tuple.Tuple) error { rows++; return nil })
	feed, err := trace.NewSteady(trace.SteadyConfig{Seed: 5, Duration: 3, Rate: 20000, Hosts: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunParallel(feed, 0); err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatal("the pipeline emitted nothing")
	}
	if sum := tr.Summary(); sum.Started != 0 || sum.Spans != 0 {
		t.Errorf("RunParallel opened %d traces and recorded %d spans, want none", sum.Started, sum.Spans)
	}
	// Detached for the run only: after a parallel run (here over an empty
	// feed, so that the tracer's packet schedule has not gone by) the same
	// engine traces on the serial path.
	e, _ = buildSamplingPipeline(t, 4096)
	if err := e.SetTracer(tr); err != nil {
		t.Fatal(err)
	}
	if err := e.RunParallel(sliceFeed(nil), 0); err != nil {
		t.Fatal(err)
	}
	if feed, err = trace.NewSteady(trace.SteadyConfig{Seed: 6, Duration: 1, Rate: 20000, Hosts: 256}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(feed); err != nil {
		t.Fatal(err)
	}
	if sum := tr.Summary(); sum.Started == 0 || sum.Finished != sum.Started {
		t.Errorf("Run after RunParallel: %d traces started, %d finished", sum.Started, sum.Finished)
	}
}

// gatedFeed forwards an inner feed, but blocks at packet pauseAt until
// released. It lets tests query the introspection surface while Run is
// provably mid-stream.
type gatedFeed struct {
	inner   trace.Feed
	n       int
	pauseAt int
	paused  chan struct{} // closed when the feed reaches pauseAt
	release chan struct{} // closed by the test to resume
}

func (g *gatedFeed) Next() (trace.Packet, bool) {
	g.n++
	if g.n == g.pauseAt {
		close(g.paused)
		<-g.release
	}
	return g.inner.Next()
}

// TestDebugEndpointsLive serves the collector's handler and hits
// /debug/plan, /debug/state and /debug/pprof while the engine is paused
// mid-run. Runs under -race in CI, so it doubles as the data-race check
// for the debug snapshot path.
func TestDebugEndpointsLive(t *testing.T) {
	// Small ring so plenty of batches (and window flushes) happen before
	// the pause point.
	e, rollNode := buildSamplingPipeline(t, 256)
	col := telemetry.New()
	e.SetCollector(col)
	tr := tracing.New(tracing.Config{Every: 100, Seed: 2})
	e.SetTracer(tr)
	rollNode.Subscribe(func(tuple.Tuple) error { return nil })

	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	inner, _ := trace.NewSteady(trace.SteadyConfig{Seed: 2, Duration: 3, Rate: 20000})
	feed := &gatedFeed{
		inner: inner, pauseAt: 40000,
		paused: make(chan struct{}), release: make(chan struct{}),
	}
	done := make(chan error, 1)
	go func() { done <- e.Run(feed) }()

	select {
	case <-feed.paused:
	case err := <-done:
		t.Fatalf("run finished before the pause point: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("feed never reached the pause point")
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
		}
		return b
	}

	var plan map[string]any
	if err := json.Unmarshal(get("/debug/plan"), &plan); err != nil {
		t.Fatalf("/debug/plan is not JSON: %v", err)
	}
	eng, ok := plan["engine"].([]any)
	if !ok || len(eng) != 3 {
		t.Fatalf("/debug/plan: want 3 engine nodes, got %v", plan["engine"])
	}
	planText, _ := json.Marshal(eng)
	for _, want := range []string{"sel", "sample", "rollup", "sampling operator"} {
		if !strings.Contains(string(planText), want) {
			t.Errorf("/debug/plan missing %q", want)
		}
	}

	var state map[string]any
	if err := json.Unmarshal(get("/debug/state"), &state); err != nil {
		t.Fatalf("/debug/state is not JSON: %v", err)
	}
	engState, ok := state["engine"].(map[string]any)
	if !ok {
		t.Fatalf("/debug/state: no engine entry: %v", state)
	}
	ring, ok := engState["ring"].(map[string]any)
	if !ok || ring["pushed"].(float64) == 0 {
		t.Errorf("/debug/state ring stats missing or zero: %v", engState["ring"])
	}
	if _, ok := engState["trace"]; !ok {
		t.Error("/debug/state missing tracer summary")
	}
	nodes, ok := engState["nodes"].([]any)
	if !ok || len(nodes) != 3 {
		t.Fatalf("/debug/state: want 3 nodes, got %v", engState["nodes"])
	}
	sawWindow := false
	for _, n := range nodes {
		nd := n.(map[string]any)
		st, ok := nd["state"].(map[string]any)
		if !ok {
			t.Errorf("node %v has nil debug state", nd["name"])
			continue
		}
		if w, ok := st["window"].(float64); ok && w > 0 {
			sawWindow = true
		}
	}
	if !sawWindow {
		t.Error("no node reported a flushed window mid-run")
	}

	if prof := get("/debug/pprof/profile?seconds=1"); len(prof) == 0 {
		t.Error("/debug/pprof/profile returned an empty profile")
	}

	close(feed.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestTracingFailedStepFinishesTakenTraces traces every packet through a
// node whose SELECT divides by zero mid-batch. In the selections the
// SELECT kernel errs after WHERE's verdicts and the list's closures err at
// the poisoned row; in the grouping query a group's row errs at the window
// flush the batch's row 200 sets off. The traces the step took — the
// failing row's, those of the kept rows after it, those its groups hold —
// end node_failed with the ones it never reached: every trace started
// finishes once.
func TestTracingFailedStepFinishesTakenTraces(t *testing.T) {
	for _, src := range []string{
		`SELECT time, srcIP, 1000 / (len - 100) FROM PKT WHERE len > 50`, // WHERE as a kernel mask
		`SELECT time, srcIP, 1000 / (len - 100) FROM PKT`,
		`SELECT time, srcIP, 1000 / (len - 100) FROM PKT WHERE bssample(len, 1) = TRUE`, // a stateful WHERE keeping every row
		`SELECT tb, srcIP, 1000 / (count(*) - 3) FROM PKT GROUP BY time/1 AS tb, srcIP`,
	} {
		e, err := engine.New(4096)
		if err != nil {
			t.Fatal(err)
		}
		node, err := e.AddLowLevel("sel", mustPlan(t, src, trace.Schema()))
		if err != nil {
			t.Fatal(err)
		}
		tr := tracing.New(tracing.Config{Every: 1, Seed: 3, MaxSpans: 1 << 20})
		if err := e.SetTracer(tr); err != nil {
			t.Fatal(err)
		}
		rows := 0
		node.Subscribe(func(tuple.Tuple) error { rows++; return nil })
		// One popped batch over two windows; the poison length 100 at
		// packet 300.
		err = e.Run(sliceFeed(foldPackets(400, 2, 40, 7, 300)))
		if err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("%s: Run = %v, want the division by zero", src, err)
		}
		sum := tr.Summary()
		if sum.Started != 400 || sum.Started != sum.Finished {
			t.Fatalf("%s: started %d traces, finished %d (%d rows out, dispositions %v)",
				src, sum.Started, sum.Finished, rows, sum.Dispositions)
		}
		var total int64
		for _, n := range sum.Dispositions {
			total += n
		}
		if total != sum.Finished || sum.Dispositions["node_failed"] == 0 {
			t.Fatalf("%s: dispositions %v, %d finished", src, sum.Dispositions, sum.Finished)
		}
	}
}
