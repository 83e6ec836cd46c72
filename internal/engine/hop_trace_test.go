package engine_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"streamop/internal/trace"
	"streamop/internal/tracing"
	"streamop/internal/tuple"
)

var updateHopTrace = flag.Bool("update-hop-trace", false,
	"rewrite testdata/hop_trace.golden from this run (done once, at the commit before the columnar edge)")

// A traced row keeps its place in a high-level node's input: the batch
// runs as columnar segments around it and the row itself goes in as a
// batch of one with its traces current. The golden file holds the events
// of this run recorded with the row-at-a-time edge (every row of every
// node through Process, in FIFO order); the columnar edge
// must record the same events in the same order — stage, node, trace id
// and every argument but the wall-clock ones.
func TestHopTraceEventsUnchanged(t *testing.T) {
	e, rollNode := buildSamplingPipeline(t, 4096)
	tr := tracing.New(tracing.Config{Every: 60, Seed: 9, MaxSpans: 1 << 20})
	if err := e.SetTracer(tr); err != nil {
		t.Fatal(err)
	}
	rollNode.Subscribe(func(tuple.Tuple) error { return nil })
	feed, err := trace.NewSteady(trace.SteadyConfig{Seed: 5, Duration: 2.2, Rate: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(feed); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	var got []string
	highLevel := 0
	for _, ev := range events {
		if ev["ph"] == "M" {
			continue
		}
		args, _ := ev["args"].(map[string]any)
		var kv []string
		for k, v := range args {
			if k != "wait_us" {
				kv = append(kv, fmt.Sprintf("%s=%v", k, v))
			}
		}
		sort.Strings(kv)
		if args["node"] == "sample" || args["node"] == "rollup" {
			highLevel++
		}
		got = append(got, fmt.Sprintf("%v %v %s", ev["tid"], ev["name"], strings.Join(kv, " ")))
	}
	if highLevel < 100 {
		t.Fatalf("only %d events at the high-level nodes; the run traces too little to check anything", highLevel)
	}
	const golden = "testdata/hop_trace.golden"
	text := strings.Join(got, "\n") + "\n"
	if *updateHopTrace {
		if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantText, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(wantText), "\n"), "\n")
	if len(got) != len(want) {
		t.Errorf("%d trace events, golden has %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("event %d = %q, golden %q", i, got[i], want[i])
		}
	}
}
