package engine_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"streamop/internal/engine"
	"streamop/internal/gsql"
	"streamop/internal/trace"
	"streamop/internal/tracing"
	"streamop/internal/tuple"
)

var updateTraceSequences = flag.Bool("update-trace-sequences", false,
	"rewrite testdata/trace_sequences.json from this run")

// traceSeqSubsetSum is the paper's dynamic subset-sum query over source
// src: a semi-stateful WHERE call, a CLEANING WHEN call over a
// superaggregate, and a CLEANING BY call over aggregates that evicts.
func traceSeqSubsetSum(src string) string {
	return `SELECT tb, uts, srcIP, UMAX(sum(len), ssthreshold()) AS adjlen FROM ` + src + `
WHERE ssample(len, 100, 2, 10) = TRUE
GROUP BY time/1 AS tb, srcIP, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`
}

// traceSeqCase is one plan shape of TestTraceSequencesUnchanged: its nodes
// in order, each reading PKT (parent -1) or an earlier node.
type traceSeqCase struct {
	name  string
	nodes []traceSeqNode
	// want lists stage names and dispositions the case must record, so
	// that it keeps exercising the trace sites it is here for.
	want []string
}

type traceSeqNode struct {
	name, src string
	parent    int
}

var traceSeqCases = []traceSeqCase{
	{name: "where_mask_app_boundary", nodes: []traceSeqNode{
		{"agg", `SELECT tb, srcIP, count(*) AS cnt, sum(len) AS bytes FROM PKT WHERE len > 300 GROUP BY time/1 AS tb, srcIP`, -1},
	}, want: []string{"where", "group_lookup", "emit", "where_rejected", "emitted"}},
	{name: "where_call_cleaning", nodes: []traceSeqNode{
		{"ss", traceSeqSubsetSum("PKT"), -1},
	}, want: []string{"sfun", "where", "group_lookup", "evict", "having", "emit", "where_rejected", "emitted"}},
	{name: "selection_where", nodes: []traceSeqNode{
		{"sel", `SELECT time, srcIP, destIP, len, uts FROM PKT WHERE len > 200`, -1},
		{"ss", traceSeqSubsetSum("sel"), 0},
	}, want: []string{"where", "emit", "transfer", "sfun", "evict", "where_rejected", "emitted"}},
	{name: "selection_call", nodes: []traceSeqNode{
		{"sel", `SELECT time, srcIP, len FROM PKT WHERE bssample(len, 3000) = TRUE`, -1},
		{"agg", `SELECT tb, srcIP, sum(len) AS bytes FROM sel GROUP BY time/1 AS tb, srcIP`, 0},
	}, want: []string{"sfun", "where", "emit", "transfer", "group_lookup", "where_rejected", "emitted"}},
	// The divisor is zero only where len % 50 = 13, a row the OR skips: the
	// WHERE kernel errs on every batch holding such a row, which then runs
	// in closure mode without an error.
	{name: "kernel_errs", nodes: []traceSeqNode{
		{"agg", `SELECT tb, srcIP, count(*) AS cnt FROM PKT WHERE len % 50 = 13 OR 1000 / (len % 50 - 13) > 0 GROUP BY time/1 AS tb, srcIP`, -1},
	}, want: []string{"where", "group_lookup", "emit", "where_rejected", "emitted"}},
	{name: "estimate", nodes: []traceSeqNode{
		{"est", `SELECT tb, uts, ESTIMATE sum(len) WITH ERROR AS vol FROM PKT
WHERE ssample(len, 200, 2, 10) = TRUE
GROUP BY time/1 as tb, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`, -1},
	}, want: []string{"sfun", "evict", "having", "emit", "emitted"}},
	// The Call-only families: a WHERE call per row, a CLEANING WHEN call
	// over a superaggregate, and CLEANING BY and HAVING over a group-by
	// variable, which run their closures.
	{name: "reservoir", nodes: []traceSeqNode{
		{"rs", `SELECT tb, uts FROM PKT WHERE rsample(uts, 50, 5) = TRUE GROUP BY time/1 AS tb, uts
HAVING rsfinal_clean(uts) = TRUE
CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE
CLEANING BY rsclean_with(uts) = TRUE`, -1},
	}, want: []string{"sfun", "where", "group_lookup", "evict", "having", "emit", "where_rejected", "emitted", "having_rejected"}},
	{name: "priority", nodes: []traceSeqNode{
		{"ps", `SELECT tb, uts, pstau() FROM PKT WHERE psample(uts, len, 50) = TRUE GROUP BY time/1 AS tb, uts
HAVING pskeep(uts) = TRUE
CLEANING WHEN psdo_clean(count_distinct$(*)) = TRUE
CLEANING BY pskeep(uts) = TRUE`, -1},
	}, want: []string{"sfun", "where", "group_lookup", "evict", "having", "emit", "where_rejected", "emitted", "having_rejected"}},
	{name: "two_hops", nodes: []traceSeqNode{
		{"sel", `SELECT time, srcIP, destIP, len, uts FROM PKT`, -1},
		{"ss", traceSeqSubsetSum("sel"), 0},
		{"rollup", `SELECT tb2, count(*) AS cnt, sum(adjlen) AS vol FROM ss GROUP BY tb/2 AS tb2`, 1},
	}, want: []string{"transfer", "sfun", "evict", "having", "emit", "emitted", "having_rejected"}},
}

// TestTraceSequencesUnchanged traces every packet through the engine's
// serial loop, 512-packet batches, over the plan shapes the walk's trace
// sites cover, and pins each trace's own event sequence: stage, node and
// every argument but the wall-clock ones, in the order recorded. Different
// traces' events may interleave differently from run to run of the code's
// history — they are compared trace by trace.
func TestTraceSequencesUnchanged(t *testing.T) {
	const golden = "testdata/trace_sequences.json"
	var want map[string]string
	if !*updateTraceSequences {
		raw, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	feed := func() trace.Feed {
		f, err := trace.NewSteady(trace.SteadyConfig{Seed: 13, Duration: 2.3, Rate: 4000, Hosts: 64})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	pkts := trace.Collect(feed())
	erring := 0
	for i := 0; i < len(pkts); i += 512 {
		for _, p := range pkts[i:min(i+512, len(pkts))] {
			if p.Len%50 == 13 {
				erring++
				break
			}
		}
	}
	if erring == 0 || erring == (len(pkts)+511)/512 {
		t.Fatalf("%d of %d batches make the kernel_errs WHERE err; want some, not all", erring, (len(pkts)+511)/512)
	}
	got := map[string]string{}
	for _, c := range traceSeqCases {
		t.Run(c.name, func(t *testing.T) {
			e, err := engine.New(4096)
			if err != nil {
				t.Fatal(err)
			}
			nodes := make([]*engine.Node, len(c.nodes))
			leaf := make([]bool, len(c.nodes))
			for i, n := range c.nodes {
				in := trace.Schema()
				if n.parent >= 0 {
					in = nodes[n.parent].Schema()
				}
				plan := mustPlan(t, n.src, in)
				if _, ok := gsql.Vectorize(plan); !ok {
					t.Fatalf("node %s does not vectorize: the case would not reach the kernels", n.name)
				}
				if n.parent < 0 {
					nodes[i], err = e.AddLowLevel(n.name, plan)
				} else {
					nodes[i], err = e.AddHighLevel(n.name, nodes[n.parent], plan)
					leaf[n.parent] = false
				}
				if err != nil {
					t.Fatal(err)
				}
				leaf[i] = true
			}
			for i, n := range nodes {
				if leaf[i] {
					n.Subscribe(func(tuple.Tuple) error { return nil })
				}
			}
			tr := tracing.New(tracing.Config{Every: 1, Seed: 4, MaxSpans: 1 << 22})
			if err := e.SetTracer(tr); err != nil {
				t.Fatal(err)
			}
			if err := e.Run(feed()); err != nil {
				t.Fatal(err)
			}
			if sum := tr.Summary(); sum.Started != int64(len(pkts)) || sum.Finished != sum.Started || sum.DroppedSpans != 0 {
				t.Fatalf("%d packets, %d traces started, %d finished, %d spans dropped", len(pkts), sum.Started, sum.Finished, sum.DroppedSpans)
			}
			got[c.name] = traceSequencesDigest(t, tr, c.want)
			if want != nil && got[c.name] != want[c.name] {
				t.Errorf("per-trace sequences %s, golden %s", got[c.name], want[c.name])
			}
		})
	}
	if *updateTraceSequences {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// traceSequencesDigest groups the tracer's events by trace id, in the order
// each was recorded, and hashes them trace by trace in id order. Every name
// in want must occur as a stage or a disposition.
func traceSequencesDigest(t *testing.T, tr *tracing.Tracer, want []string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []tracing.Event
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	seqs := map[int64][]string{}
	seen := map[string]bool{}
	n := 0
	for _, ev := range events {
		if ev.Ph == "M" {
			continue
		}
		var kv []string
		for k, v := range ev.Args {
			if k != "wait_us" {
				kv = append(kv, fmt.Sprintf("%s=%v", k, v))
			}
		}
		sort.Strings(kv)
		seqs[ev.TID] = append(seqs[ev.TID], ev.Name+" "+strings.Join(kv, " "))
		seen[ev.Name] = true
		if d, ok := ev.Args["disposition"].(string); ok {
			seen[d] = true
		}
		n++
	}
	for _, w := range want {
		if !seen[w] {
			t.Errorf("no %q recorded", w)
		}
	}
	ids := make([]int64, 0, len(seqs))
	for id := range seqs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%d: %s\n", id, strings.Join(seqs[id], " | "))
	}
	return fmt.Sprintf("%d traces, %d events, %x", len(ids), n, h.Sum(nil))
}
