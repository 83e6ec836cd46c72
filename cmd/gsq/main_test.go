package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestOpenFeedKinds(t *testing.T) {
	for _, kind := range []string{"bursty", "steady", "ddos", "flows"} {
		f, err := openFeed(kind, "", 0.01, 1)
		if err != nil {
			t.Errorf("openFeed(%s): %v", kind, err)
			continue
		}
		if f == nil {
			t.Errorf("openFeed(%s) returned nil feed", kind)
		}
	}
	if _, err := openFeed("nope", "", 1, 1); err == nil {
		t.Error("unknown feed accepted")
	}
	if _, err := openFeed("steady", "/does/not/exist.sopt", 1, 1); err == nil {
		t.Error("missing replay file accepted")
	}
}

func TestRunQueryOverFeed(t *testing.T) {
	err := run(config{
		Query:    "SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb",
		Feed:     "steady",
		Duration: 0.5, Seed: 1, Limit: 3, Ring: 4096, Stats: true,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunExplain(t *testing.T) {
	err := run(config{
		Query: "SELECT uts FROM PKT WHERE len > 0",
		Feed:  "steady", Duration: 0.1, Seed: 1, Ring: 4096, Explain: true,
	})
	if err != nil {
		t.Fatalf("run -explain: %v", err)
	}
}

func TestRunQueryFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "q.gsql")
	if err := os.WriteFile(path, []byte("SELECT uts FROM PKT WHERE len >= 1500"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(config{QueryFile: path, Feed: "steady", Duration: 0.1, Seed: 1, Limit: 2, Ring: 4096}); err != nil {
		t.Fatalf("run -queryfile: %v", err)
	}
	if err := run(config{QueryFile: filepath.Join(dir, "missing.gsql"), Feed: "steady", Duration: 0.1, Seed: 1, Ring: 4096}); err == nil {
		t.Error("missing query file accepted")
	}
}

// TestRunPartialParallel exercises the sharded execution path end to
// end: -partial -parallel -shards over a steady feed.
func TestRunPartialParallel(t *testing.T) {
	cfg := config{
		Query:    "SELECT tb, srcIP, sum(len) FROM PKT GROUP BY time/1 as tb, srcIP",
		Feed:     "steady",
		Duration: 0.5, Seed: 1, Ring: 4096, Stats: true,
		Partial: 256, Parallel: true, Shards: 2,
	}
	if err := run(cfg); err != nil {
		t.Fatalf("run -partial -parallel: %v", err)
	}
	// Same query, single-threaded partial node.
	cfg.Parallel, cfg.Shards = false, 0
	if err := run(cfg); err != nil {
		t.Fatalf("run -partial: %v", err)
	}
	// Paced parallel selection (no -partial).
	if err := run(config{
		Query: "SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb",
		Feed:  "steady", Duration: 0.3, Seed: 1, Ring: 4096,
		Parallel: true, Speedup: 1000,
	}); err != nil {
		t.Fatalf("run -parallel -speedup: %v", err)
	}
}

func TestRunPartialFlagErrors(t *testing.T) {
	// -shards without -partial is a usage error.
	if err := run(config{
		Query: "SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb",
		Feed:  "steady", Duration: 0.1, Seed: 1, Ring: 4096, Shards: 4,
	}); err == nil {
		t.Error("-shards without -partial accepted")
	}
	// A query with WHERE cannot run as a partial node.
	if err := run(config{
		Query: "SELECT tb, count(*) FROM PKT WHERE len > 0 GROUP BY time/1 as tb",
		Feed:  "steady", Duration: 0.1, Seed: 1, Ring: 4096, Partial: 64,
	}); err == nil {
		t.Error("partial node with WHERE accepted")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(config{Feed: "steady", Duration: 1, Seed: 1, Ring: 4096}); err == nil {
		t.Error("empty query accepted")
	}
	if err := run(config{Query: "not a query", Feed: "steady", Duration: 1, Seed: 1, Ring: 4096}); err == nil {
		t.Error("bad query accepted")
	}
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(config{Query: "SELECT uts FROM PKT", Feed: "steady", Duration: 0.1, Seed: 1, Ring: 4096, OutDir: filepath.Join(blocker, "sub")}); err == nil {
		t.Error("unwritable artifact directory accepted")
	}
}

// TestRunEventsFile exercises the events artifact end to end: the run
// must leave a parseable JSONL file with at least one window_flush event.
func TestRunEventsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	err := run(config{
		Query: "SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb",
		Feed:  "steady", Duration: 2, Seed: 1, Ring: 4096,
		OutDir: dir, Artifacts: "events",
	})
	if err != nil {
		t.Fatalf("run -artifacts events: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	flushes := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if ev["event"] == "window_flush" {
			flushes++
		}
	}
	if flushes == 0 {
		t.Error("no window_flush events recorded")
	}
}

// TestRunOutDirArtifacts exercises the unified -o DIR output: every
// artifact selected via -artifacts must land in the directory, well
// formed, and the replay capture must drive an identical re-run.
func TestRunOutDirArtifacts(t *testing.T) {
	dir := t.TempDir()
	err := run(config{
		Query: "SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb",
		Feed:  "steady", Duration: 1, Seed: 1, Ring: 4096,
		OutDir: dir, Artifacts: "events,metrics,state,trace,replay", TraceEvery: 100,
	})
	if err != nil {
		t.Fatalf("run -o: %v", err)
	}

	// events.jsonl: parseable JSONL with at least one window_flush.
	f, err := os.Open(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	flushes := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if ev["event"] == "window_flush" {
			flushes++
		}
	}
	f.Close()
	if flushes == 0 {
		t.Error("events.jsonl has no window_flush events")
	}

	// metrics.prom: a final Prometheus exposition with engine metrics.
	b, err := os.ReadFile(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "streamop_") {
		t.Error("metrics.prom has no streamop_ metrics")
	}

	// state.json: the /debug/state snapshot with the engine's ring.
	b, err = os.ReadFile(filepath.Join(dir, "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	var state map[string]any
	if err := json.Unmarshal(b, &state); err != nil {
		t.Fatalf("state.json is not JSON: %v", err)
	}
	eng, ok := state["engine"].(map[string]any)
	if !ok || eng["ring"] == nil {
		t.Errorf("state.json missing engine ring: %v", state)
	}

	// trace.json: a Chrome trace-event array.
	b, err = os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatalf("trace.json is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Error("trace.json is empty")
	}

	// replay.sopt: a valid capture that can drive a re-run.
	if err := run(config{
		Query: "SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb",
		Feed:  "steady", Replay: filepath.Join(dir, "replay.sopt"),
		Seed: 1, Ring: 4096,
	}); err != nil {
		t.Fatalf("re-run from replay.sopt: %v", err)
	}
}

// TestRunProfileArtifact runs with -profile and the profile artifact and
// checks the PROFILE.json schema CI's jq validation keys on: top-level
// total_self_ns/nodes, 8 stages per node in canonical order.
func TestRunProfileArtifact(t *testing.T) {
	dir := t.TempDir()
	err := run(config{
		Query: "SELECT tb, srcIP, sum(len) FROM PKT GROUP BY time/1 as tb, srcIP",
		Feed:  "steady", Duration: 1, Seed: 1, Ring: 4096,
		OutDir: dir, Artifacts: "profile", Profile: true,
	})
	if err != nil {
		t.Fatalf("run -profile: %v", err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "PROFILE.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		TotalSelfNS float64 `json:"total_self_ns"`
		Nodes       []struct {
			Node   string `json:"node"`
			Stages []struct {
				Stage string `json:"stage"`
			} `json:"stages"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("PROFILE.json is not JSON: %v", err)
	}
	if rep.TotalSelfNS <= 0 {
		t.Errorf("total_self_ns = %v, want > 0", rep.TotalSelfNS)
	}
	names := map[string]bool{}
	for _, n := range rep.Nodes {
		names[n.Node] = true
		if len(n.Stages) != 8 || n.Stages[4].Stage != "walk" {
			t.Errorf("node %s stages = %v, want 8 with walk fifth", n.Node, n.Stages)
		}
	}
	if !names["query"] || !names["source"] {
		t.Errorf("PROFILE.json nodes = %v, want query and source", names)
	}
}

// TestRunExplainAnalyzePrefix checks the query-text spellings: EXPLAIN
// renders the plan without running, EXPLAIN ANALYZE runs with profiling.
func TestRunExplainAnalyzePrefix(t *testing.T) {
	if err := run(config{
		Query: "EXPLAIN SELECT uts FROM PKT WHERE len > 0",
		Feed:  "steady", Duration: 0.1, Seed: 1, Ring: 4096,
	}); err != nil {
		t.Fatalf("EXPLAIN prefix: %v", err)
	}
	dir := t.TempDir()
	if err := run(config{
		Query: "EXPLAIN ANALYZE SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb",
		Feed:  "steady", Duration: 0.5, Seed: 1, Ring: 4096,
		OutDir: dir, Artifacts: "profile",
	}); err != nil {
		t.Fatalf("EXPLAIN ANALYZE prefix: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "PROFILE.json")); err != nil {
		t.Errorf("EXPLAIN ANALYZE wrote no PROFILE.json: %v", err)
	}
}

// TestRunOutDirDefaults checks the default artifact selection (events,
// metrics, state — no trace, no replay) when -artifacts is unset.
func TestRunOutDirDefaults(t *testing.T) {
	dir := t.TempDir()
	err := run(config{
		Query: "SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb",
		Feed:  "steady", Duration: 0.5, Seed: 1, Ring: 4096, OutDir: dir,
	})
	if err != nil {
		t.Fatalf("run -o with default artifacts: %v", err)
	}
	for _, want := range []string{"events.jsonl", "metrics.prom", "state.json"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("default artifact %s missing: %v", want, err)
		}
	}
	for _, skip := range []string{"trace.json", "replay.sopt", "PROFILE.json"} {
		if _, err := os.Stat(filepath.Join(dir, skip)); err == nil {
			t.Errorf("opt-in artifact %s written by default", skip)
		}
	}
}

func TestRunArtifactFlagErrors(t *testing.T) {
	base := config{
		Query: "SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb",
		Feed:  "steady", Duration: 0.1, Seed: 1, Ring: 4096,
	}
	cfg := base
	cfg.OutDir, cfg.Artifacts = t.TempDir(), "events,bogus"
	if err := run(cfg); err == nil {
		t.Error("unknown artifact name accepted")
	}
}

// TestRunOverloadInject exercises -overload and -inject end to end for
// every policy, over both Run and paced RunParallel.
func TestRunOverloadInject(t *testing.T) {
	for _, policy := range []string{"drop-tail", "shed-sample", "block"} {
		err := run(config{
			Query: "SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb",
			Feed:  "steady", Duration: 0.5, Seed: 1, Ring: 512, Stats: true,
			Overload: policy, Inject: "drop:0.1,burst:64@0.5,stall:100us@0.25,slow:1us",
		})
		if err != nil {
			t.Fatalf("run -overload %s -inject: %v", policy, err)
		}
	}
	if err := run(config{
		Query: "SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb",
		Feed:  "steady", Duration: 0.3, Seed: 1, Ring: 512,
		Parallel: true, Speedup: 1000, Overload: "shed-sample", Inject: "burst:128@0.5,stall:200us@0.5",
	}); err != nil {
		t.Fatalf("run -parallel -overload -inject: %v", err)
	}
	if err := run(config{
		Query: "SELECT uts FROM PKT", Feed: "steady", Duration: 0.1, Seed: 1, Ring: 512,
		Overload: "tail-drop",
	}); err == nil {
		t.Error("bad -overload policy accepted")
	}
	if err := run(config{
		Query: "SELECT uts FROM PKT", Feed: "steady", Duration: 0.1, Seed: 1, Ring: 512,
		Inject: "drop:2.0",
	}); err == nil {
		t.Error("bad -inject spec accepted")
	}
}

// TestRunTraceFile exercises the trace artifact end to end: the run must
// leave a Chrome trace-event JSON array with dispositions, and the events
// artifact must carry the mirrored trace_span / trace_done stream.
func TestRunTraceFile(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	eventsPath := filepath.Join(dir, "events.jsonl")
	err := run(config{
		Query: "SELECT tb, count(*) FROM PKT GROUP BY time/1 as tb",
		Feed:  "steady", Duration: 1, Seed: 1, Ring: 4096, Stats: true,
		OutDir: dir, Artifacts: "events,trace", TraceEvery: 100,
	})
	if err != nil {
		t.Fatalf("run -artifacts trace: %v", err)
	}

	b, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatalf("trace output is not a JSON array: %v", err)
	}
	dispositions := 0
	for _, ev := range events {
		if ev["ph"] == "" || ev["pid"] == nil || ev["tid"] == nil {
			t.Fatalf("malformed trace event: %v", ev)
		}
		if ev["name"] == "disposition" {
			dispositions++
		}
	}
	if dispositions == 0 {
		t.Error("no dispositions in trace output")
	}

	f, err := os.Open(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, dones := 0, 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		switch ev["event"] {
		case "trace_span":
			spans++
		case "trace_done":
			dones++
		}
	}
	if spans == 0 || dones == 0 {
		t.Errorf("event log missing trace stream: %d trace_span, %d trace_done", spans, dones)
	}
}
