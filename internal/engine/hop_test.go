package engine_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"streamop/internal/checkpoint"
	"streamop/internal/engine"
	"streamop/internal/gsql"
	"streamop/internal/operator"
	"streamop/internal/telemetry"
	"streamop/internal/trace"
	"streamop/internal/tracing"
	"streamop/internal/tuple"
	"streamop/internal/value"
)

// The edge between nodes is columnar (a node's emissions append to its
// subscribers' input batches; drainHigh hands a batch to ProcessBatch; a
// selection tap without callbacks never builds a row). None of that may
// show: every node must see the rows, keep the counters and end in the
// state it would have had the same rows come one by one through
// Process. The reference below is exactly that — operators chained by
// their emit callbacks, no engine, no batch.

type hopNode struct {
	name, src string
	parent    int  // index of the node it reads; -1 reads PKT
	app       bool // an application callback collects its rows
}

type hopTopo struct {
	name  string
	nodes []hopNode // parents before children
	// install makes the session variant a tap (nodes[0]) and a standing
	// query (nodes[1]) installed through Engine.Install; otherwise the
	// session pumps a topology built with AddLowLevel/AddHighLevel.
	install bool
}

const (
	hopPassThrough = `SELECT time, srcIP, destIP, len, uts FROM PKT`
	hopSubsetSum   = `
SELECT tb, uts, srcIP, destIP, UMAX(sum(len), ssthreshold()) AS adjlen
FROM low
WHERE ssample(len, 100, 2, 10) = TRUE
GROUP BY time/1 AS tb, srcIP, destIP, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`
	hopAggTap = `SELECT tb, srcIP, sum(len) AS bytes, count(*) AS cnt FROM PKT GROUP BY time/1 AS tb, srcIP`
)

var hopTopos = []hopTopo{
	{name: "selection_sampling", install: true, nodes: []hopNode{
		{name: "low", src: hopPassThrough, parent: -1},
		{name: "ss", src: hopSubsetSum, parent: 0, app: true},
	}},
	{name: "where_selection_sampling", install: true, nodes: []hopNode{
		{name: "low", src: hopPassThrough + ` WHERE len > 200 AND NOT (srcIP % 16 = 3)`, parent: -1},
		{name: "ss", src: hopSubsetSum, parent: 0, app: true},
	}},
	{name: "stateful_selection_sampling", install: true, nodes: []hopNode{
		{name: "low", src: hopPassThrough + ` WHERE bssample(len, 3000) = TRUE`, parent: -1},
		{name: "ss", src: hopSubsetSum, parent: 0, app: true},
	}},
	{name: "selection_with_app_sampling", nodes: []hopNode{
		{name: "low", src: hopPassThrough, parent: -1, app: true},
		{name: "ss", src: hopSubsetSum, parent: 0, app: true},
	}},
	{name: "aggtap_selection", install: true, nodes: []hopNode{
		{name: "tap", src: hopAggTap, parent: -1},
		{name: "sel", src: `SELECT tb, srcIP, bytes, cnt FROM tap WHERE srcIP % 8 <> 3`, parent: 0, app: true},
	}},
	{name: "cascade", nodes: []hopNode{
		{name: "low", src: hopPassThrough, parent: -1},
		{name: "mid", src: `SELECT tb, srcIP, sum(len) AS bytes, count(*) AS cnt FROM low GROUP BY time/1 AS tb, srcIP`, parent: 0},
		{name: "fil", src: `SELECT tb, srcIP, bytes / cnt AS avg FROM mid WHERE cnt > 1`, parent: 1},
		{name: "top", src: `SELECT tb, count(*), sum(avg) FROM fil GROUP BY tb`, parent: 2, app: true},
		{name: "ss", src: hopSubsetSum, parent: 0, app: true},
	}},
}

// hopResult is what one node shows of itself after a run.
type hopResult struct {
	rows  []string
	stats operator.Stats
	snap  []byte
}

// rowKey renders a row bit for bit: kind, payload word and string of
// every field.
func rowKey(row tuple.Tuple) string {
	var b strings.Builder
	for _, v := range row {
		if v.Kind() == value.String {
			fmt.Fprintf(&b, "s:%q|", v.Str())
		} else {
			fmt.Fprintf(&b, "%d:%x|", v.Kind(), v.Bits())
		}
	}
	return b.String()
}

func hopPackets(t testing.TB) []trace.Packet {
	t.Helper()
	// 1-second windows of 20 000 packets: no multiple of the 512-packet
	// batch, so batches straddle every window boundary.
	feed, err := trace.NewSteady(trace.SteadyConfig{Seed: 7, Duration: 3.2, Rate: 20000, Hosts: 512})
	if err != nil {
		t.Fatal(err)
	}
	return trace.Collect(feed)
}

// hopReference feeds pkts through topo's operators chained by their emit
// callbacks: every row goes through Process the moment its parent emits
// it.
func hopReference(t *testing.T, topo hopTopo, pkts []trace.Packet) []hopResult {
	t.Helper()
	res := make([]hopResult, len(topo.nodes))
	ops := make([]*operator.Operator, len(topo.nodes))
	kids := make([][]int, len(topo.nodes))
	schemas := make([]*tuple.Schema, len(topo.nodes))
	for i, n := range topo.nodes {
		in := trace.Schema()
		if n.parent >= 0 {
			in = schemas[n.parent]
			kids[n.parent] = append(kids[n.parent], i)
		}
		plan := mustPlan(t, n.src, in)
		var err error
		if schemas[i], err = plan.OutputSchema(n.name); err != nil {
			t.Fatal(err)
		}
		i, n := i, n
		ops[i], err = operator.New(plan, func(row tuple.Tuple) error {
			if n.app {
				res[i].rows = append(res[i].rows, rowKey(row))
			}
			for _, k := range kids[i] {
				if err := ops[k].Process(row.Clone()); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	buf := make(tuple.Tuple, trace.NumFields)
	for _, p := range pkts {
		for i, n := range topo.nodes {
			if n.parent < 0 {
				p.AppendTuple(buf)
				if err := ops[i].Process(buf); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i := range topo.nodes { // bottom-up, like the engine's end of stream
		if err := ops[i].Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := range topo.nodes {
		res[i].stats = ops[i].Stats()
		res[i].snap = snapshotOp(t, ops[i])
	}
	return res
}

// hopBuild assembles topo on a new engine with AddLowLevel/AddHighLevel.
func hopBuild(t testing.TB, topo hopTopo, res []hopResult) (*engine.Engine, []*engine.Node) {
	t.Helper()
	e, err := engine.New(4096)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*engine.Node, len(topo.nodes))
	for i, n := range topo.nodes {
		if n.parent < 0 {
			nodes[i], err = e.AddLowLevel(n.name, mustPlan(t, n.src, trace.Schema()))
		} else {
			p := nodes[n.parent]
			nodes[i], err = e.AddHighLevel(n.name, p, mustPlan(t, n.src, p.Schema()))
		}
		if err != nil {
			t.Fatal(err)
		}
		if n.app && res != nil {
			i := i
			nodes[i].Subscribe(func(row tuple.Tuple) error {
				res[i].rows = append(res[i].rows, rowKey(row))
				return nil
			})
		}
	}
	return e, nodes
}

func hopCollect(t *testing.T, nodes []*engine.Node, res []hopResult) {
	t.Helper()
	for i, n := range nodes {
		res[i].stats = n.Stats().Operator
		snap, err := n.OperatorSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		res[i].snap = snap
		if n.PendingInput() != 0 {
			t.Errorf("node %s: %d rows left in its input batch", n.Stats().Name, n.PendingInput())
		}
	}
}

func hopCompare(t *testing.T, mode string, topo hopTopo, got, want []hopResult) {
	t.Helper()
	for i, n := range topo.nodes {
		if n.app {
			if len(want[i].rows) == 0 {
				t.Fatalf("%s: reference node %s emitted nothing; the test checks nothing", mode, n.name)
			}
			if len(got[i].rows) != len(want[i].rows) {
				t.Fatalf("%s: node %s emitted %d rows, row-by-row reference %d", mode, n.name, len(got[i].rows), len(want[i].rows))
			}
			for r := range want[i].rows {
				if got[i].rows[r] != want[i].rows[r] {
					t.Fatalf("%s: node %s row %d = %s, row-by-row reference %s", mode, n.name, r, got[i].rows[r], want[i].rows[r])
				}
			}
		}
		if got[i].stats != want[i].stats {
			t.Errorf("%s: node %s stats %+v, row-by-row reference %+v", mode, n.name, got[i].stats, want[i].stats)
		}
		if !bytes.Equal(got[i].snap, want[i].snap) {
			t.Errorf("%s: node %s operator snapshot differs from the row-by-row reference's (%d vs %d bytes)",
				mode, n.name, len(got[i].snap), len(want[i].snap))
		}
	}
}

func TestHopEquivalence(t *testing.T) {
	pkts := hopPackets(t)
	for _, topo := range hopTopos {
		t.Run(topo.name, func(t *testing.T) {
			want := hopReference(t, topo, pkts)

			got := make([]hopResult, len(topo.nodes))
			e, nodes := hopBuild(t, topo, got)
			if err := e.Run(sliceFeed(pkts)); err != nil {
				t.Fatal(err)
			}
			hopCollect(t, nodes, got)
			hopCompare(t, "Run", topo, got, want)

			got = make([]hopResult, len(topo.nodes))
			if topo.install {
				tap, q := topo.nodes[0], topo.nodes[1]
				var err error
				if e, err = engine.New(4096); err != nil {
					t.Fatal(err)
				}
				h, err := e.Install(q.name, q.src, engine.InstallOptions{Via: tap.src, Seed: 1,
					OnRow: func(row tuple.Tuple) error {
						got[1].rows = append(got[1].rows, rowKey(row))
						return nil
					}})
				if err != nil {
					t.Fatal(err)
				}
				nodes = []*engine.Node{e.Nodes()[0], h.Node()}
				if name := nodes[0].Stats().Name; name != tap.name {
					t.Fatalf("first node is %q, want the tap %q", name, tap.name)
				}
			} else {
				e, nodes = hopBuild(t, topo, got)
			}
			if err := e.Start(context.Background(), sliceFeed(pkts)); err != nil {
				t.Fatal(err)
			}
			if err := e.Wait(); err != nil {
				t.Fatal(err)
			}
			hopCollect(t, nodes, got)
			hopCompare(t, "session", topo, got, want)

			// A goroutine per node, unpaced: nothing drops, and every node has
			// one parent, so its input arrives in the order the parent emitted
			// it whatever the batches on the edge were cut into.
			got = make([]hopResult, len(topo.nodes))
			e, nodes = hopBuild(t, topo, got)
			if err := e.RunParallel(sliceFeed(pkts), 0); err != nil {
				t.Fatal(err)
			}
			hopCollect(t, nodes, got)
			hopCompare(t, "RunParallel", topo, got, want)
		})
	}
}

// A sharded parent: two replicas of a partial-aggregation tap fill batches
// of their own and share the edge into a selection. Rows of one window
// interleave across replicas, windows do not: each replica hands its rows
// on before it acknowledges the window barrier. Per window, the selection
// emits the multiset Run emits.
func TestHopShardedParent(t *testing.T) {
	pkts := hopPackets(t)
	type window struct {
		tb   string
		rows map[string]int
	}
	run := func(parallel bool) ([]window, operator.Stats, int64) {
		e, err := engine.New(4096)
		if err != nil {
			t.Fatal(err)
		}
		// 64 slots under 512 hosts: collisions evict all the time, so a
		// window is many partial rows per group, not one.
		tap, err := e.AddLowLevelPartialAgg("tap", mustPlan(t, hopAggTap, trace.Schema()), 64)
		if err != nil {
			t.Fatal(err)
		}
		tap.SetShards(2)
		sel, err := e.AddHighLevel("sel", tap.Base(),
			mustPlan(t, `SELECT tb, srcIP, bytes, cnt FROM tap WHERE srcIP % 8 <> 3`, tap.Schema()))
		if err != nil {
			t.Fatal(err)
		}
		var wins []window
		sel.Subscribe(func(row tuple.Tuple) error {
			tb := rowKey(row[:1])
			if len(wins) == 0 || wins[len(wins)-1].tb != tb {
				wins = append(wins, window{tb: tb, rows: map[string]int{}})
			}
			wins[len(wins)-1].rows[rowKey(row)]++
			return nil
		})
		if parallel {
			err = e.RunParallel(sliceFeed(pkts), 0)
		} else {
			err = e.Run(sliceFeed(pkts))
		}
		if err != nil {
			t.Fatal(err)
		}
		if sel.PendingInput() != 0 {
			t.Errorf("%d rows left in the selection's input batch", sel.PendingInput())
		}
		return wins, sel.Stats().Operator, tap.Evictions()
	}
	want, wantStats, wantEvict := run(false)
	got, gotStats, gotEvict := run(true)
	if len(want) < 4 || wantEvict == 0 {
		t.Fatalf("reference run: %d windows, %d evictions; the test checks nothing", len(want), wantEvict)
	}
	if len(got) != len(want) {
		t.Fatalf("RunParallel: %d windows, Run %d (a window's rows arrived split)", len(got), len(want))
	}
	for i := range want {
		if got[i].tb != want[i].tb || len(got[i].rows) != len(want[i].rows) {
			t.Fatalf("window %d: RunParallel %s with %d distinct rows, Run %s with %d",
				i, got[i].tb, len(got[i].rows), want[i].tb, len(want[i].rows))
		}
		for k, n := range want[i].rows {
			if got[i].rows[k] != n {
				t.Fatalf("window %d: row %s emitted %d times, Run %d", i, k, got[i].rows[k], n)
			}
		}
	}
	if gotStats != wantStats || gotEvict != wantEvict {
		t.Errorf("RunParallel: selection stats %+v, %d evictions; Run %+v, %d", gotStats, gotEvict, wantStats, wantEvict)
	}
}

// An error in the middle of a window's output — the SELECT list failing on
// group j, an application callback failing on row k — ends the run with
// that error once the rows before it have been delivered, in order. A
// window here holds 700 groups and the failure sits at 600: past the first
// 512 rows a node emits, in the middle of the next.
func TestHopErrorMidWindow(t *testing.T) {
	const groups, bad = 700, 600
	var pkts []trace.Packet
	for w := 0; w < 2; w++ {
		for i := 0; i < groups; i++ {
			pkts = append(pkts, trace.Packet{Time: uint64(w)*1e9 + uint64(i), SrcIP: uint32(1 + i), Proto: 6, Len: 100})
		}
	}
	const (
		sound    = `SELECT tb, srcIP, 1000 / (srcIP + 1) AS q FROM %s GROUP BY time/1 AS tb, srcIP`
		poisoned = `SELECT tb, srcIP, 1000 / (srcIP - %d) AS q FROM %s GROUP BY time/1 AS tb, srcIP`
	)
	errApp := fmt.Errorf("application full")
	// run builds one aggregating node of the given kind, shows its rows to
	// a callback that fails on call failAt (never, if negative), and
	// returns the (tb, srcIP) of the rows delivered before the run ended.
	type key struct{ tb, src uint64 }
	run := func(t *testing.T, kind, mode, src string, failAt int) ([]key, error) {
		// A ring the feed fills several times over: the session reaches a
		// boundary, where a failed query is settled, after the first window.
		e, err := engine.New(256)
		if err != nil {
			t.Fatal(err)
		}
		var keys []key
		onRow := func(row tuple.Tuple) error {
			if len(keys) == failAt {
				return errApp
			}
			keys = append(keys, key{row[0].AsUint(), row[1].AsUint()})
			return nil
		}
		if kind == "install" {
			// A standing query's OnRow: its error fails the query, not the
			// session.
			h, err := e.Install("agg", fmt.Sprintf(src, "tap"), engine.InstallOptions{Via: `SELECT time, srcIP FROM PKT`, OnRow: onRow})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Start(context.Background(), sliceFeed(pkts)); err != nil {
				t.Fatal(err)
			}
			if err := e.Wait(); err != nil {
				return keys, err
			}
			if f := e.Failures(); h.Err() != nil && (len(f) != 1 || f[0].Node != "agg") {
				t.Errorf("query failed with %v; failures = %+v, want the query's node", h.Err(), f)
			}
			return keys, h.Err()
		}
		var n *engine.Node
		switch kind {
		case "low":
			n, err = e.AddLowLevel("agg", mustPlan(t, fmt.Sprintf(src, "PKT"), trace.Schema()))
		case "high":
			var tap *engine.Node
			if tap, err = e.AddLowLevel("tap", mustPlan(t, `SELECT time, srcIP FROM PKT`, trace.Schema())); err != nil {
				t.Fatal(err)
			}
			n, err = e.AddHighLevel("agg", tap, mustPlan(t, fmt.Sprintf(src, "tap"), tap.Schema()))
		case "partial":
			var pn *engine.PartialNode
			if pn, err = e.AddLowLevelPartialAgg("agg", mustPlan(t, fmt.Sprintf(src, "PKT"), trace.Schema()), 4096); err == nil {
				pn.SetShards(1)
				n = pn.Base()
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		n.Subscribe(onRow)
		switch mode {
		case "Run":
			err = e.Run(sliceFeed(pkts))
		case "session":
			if err = e.Start(context.Background(), sliceFeed(pkts)); err == nil {
				err = e.Wait()
			}
		case "RunParallel":
			err = e.RunParallel(sliceFeed(pkts), 0)
		}
		return keys, err
	}
	modes := map[string][]string{
		"low":     {"Run", "session", "RunParallel"},
		"high":    {"Run", "session", "RunParallel"},
		"partial": {"Run", "RunParallel"}, // a session's taps are operators
		"install": {"session"},
	}
	for _, kind := range []string{"low", "high", "partial", "install"} {
		for _, mode := range modes[kind] {
			t.Run(kind+"/"+mode, func(t *testing.T) {
				want, err := run(t, kind, mode, sound, -1)
				if err != nil || len(want) != 2*groups {
					t.Fatalf("sound run: %d rows, err %v", len(want), err)
				}
				// The group SELECT fails on is the one srcIP names; where it
				// comes in the window is the node's business (a partial
				// table flushes in slot order).
				at := 0
				for want[at].src != 1+bad {
					at++
				}
				got, err := run(t, kind, mode, fmt.Sprintf(poisoned, 1+bad, "%s"), -1)
				if err == nil || !strings.Contains(err.Error(), "SELECT q") {
					t.Fatalf("SELECT failing on group %d: err = %v", at, err)
				}
				if len(got) != at {
					t.Fatalf("SELECT failing on group %d: %d rows delivered before the error", at, len(got))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("SELECT failing on group %d: row %d = %v, want %v", at, i, got[i], want[i])
					}
				}

				got, err = run(t, kind, mode, sound, bad)
				if !errors.Is(err, errApp) {
					t.Fatalf("callback failing on row %d: err = %v", bad, err)
				}
				if len(got) != bad {
					t.Fatalf("callback failing on row %d: %d rows delivered before the error", bad, len(got))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("callback failing on row %d: row %d = %v, want %v", bad, i, got[i], want[i])
					}
				}
			})
		}
	}
}

// A node that panics in the middle of its input batch loses that batch
// and everything after it; its sibling on the same tap, and the tap, do
// not notice.
func TestHopPanicMidBatch(t *testing.T) {
	pkts := hopPackets(t)
	const limit = 1_500_000_000 // uts of a packet in the middle of the stream
	sibling := hopTopo{nodes: []hopNode{
		{name: "low", src: hopPassThrough, parent: -1},
		{name: "ss", src: hopSubsetSum, parent: 0, app: true},
	}}
	want := hopReference(t, sibling, pkts)

	got := make([]hopResult, 2)
	e, nodes := hopBuild(t, sibling, got)
	q, err := gsql.Parse(`SELECT uts, len FROM low WHERE boom(uts) = TRUE`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gsql.Analyze(q, nodes[0].Schema(), boomRegistry(t, limit))
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := e.AddHighLevel("doomed", nodes[0], plan)
	if err != nil {
		t.Fatal(err)
	}
	var doomedRows []string
	doomed.Subscribe(func(row tuple.Tuple) error {
		doomedRows = append(doomedRows, rowKey(row))
		return nil
	})
	if err := e.Run(sliceFeed(pkts)); err != nil {
		t.Fatalf("run died with the query: %v", err)
	}
	if f := e.Failures(); len(f) != 1 || f[0].Node != "doomed" || !strings.Contains(f[0].Msg, "injected operator panic") {
		t.Fatalf("failures = %+v, want the doomed node's panic", f)
	}
	hopCollect(t, nodes, got)
	hopCompare(t, "with a panicking sibling", sibling, got, want)
	if doomed.PendingInput() != 0 {
		t.Errorf("failed node keeps %d rows in its input batch", doomed.PendingInput())
	}

	// What the doomed node emitted is a prefix of what it would have
	// emitted row by row, short by less than the batch it died in.
	var before int
	for _, p := range pkts {
		if p.Time <= limit {
			before++
		}
	}
	if len(doomedRows) > before || before-len(doomedRows) >= 512 {
		t.Errorf("doomed node emitted %d rows; %d precede the panic, in batches of at most 512", len(doomedRows), before)
	}
	if in := doomed.Stats().TuplesIn; in < int64(before) || in > int64(before)+512 {
		t.Errorf("doomed node took %d rows in, the panic is at row %d", in, before)
	}
}

// Rows discarded with a failed node's input batch take their place in the
// trace bookkeeping with them: traced rows ride on their position in the
// batch, and an entry left behind would be read against the next batch.
func TestHopDiscardKeepsTraceCounters(t *testing.T) {
	pkts := hopPackets(t)
	const limit = 1_500_000_000
	e, nodes := hopBuild(t, hopTopo{nodes: []hopNode{{name: "low", src: hopPassThrough, parent: -1}}}, nil)
	q, err := gsql.Parse(`SELECT uts, len FROM low WHERE boom(uts) = TRUE`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gsql.Analyze(q, nodes[0].Schema(), boomRegistry(t, limit))
	if err != nil {
		t.Fatal(err)
	}
	// The tap's first subscriber: the one traced rows follow.
	doomed, err := e.AddHighLevel("doomed", nodes[0], plan)
	if err != nil {
		t.Fatal(err)
	}
	tr := tracing.New(tracing.Config{Every: 5, Seed: 2, MaxSpans: 1 << 20})
	if err := e.SetTracer(tr); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(sliceFeed(pkts)); err != nil {
		t.Fatalf("run died with the query: %v", err)
	}
	if f := e.Failures(); len(f) != 1 || f[0].Node != "doomed" {
		t.Fatalf("failures = %+v, want the doomed node's panic", f)
	}
	if sum := tr.Summary(); sum.Started < int64(len(pkts)/10) || sum.Finished != sum.Started {
		t.Fatalf("%d traces started, %d finished, over %d packets", sum.Started, sum.Finished, len(pkts))
	}
	if traces := doomed.TraceBacklog(); doomed.PendingInput() != 0 || traces != 0 {
		t.Errorf("failed node: %d rows in its batch, %d traces pending; want 0, 0", doomed.PendingInput(), traces)
	}
}

// streamop_node_queue_depth reports the rows a drain found waiting in a
// high-level node's input batch. (It read 0 for ever when the gauge was
// set from the queue the drain had just emptied.)
func TestHopQueueDepthGauge(t *testing.T) {
	c := telemetry.New()
	e, nodes := hopBuild(t, hopTopos[0], nil)
	if err := e.SetCollector(c); err != nil {
		t.Fatal(err)
	}
	depth := func() float64 {
		v, _ := c.Snapshot().Value("streamop_node_queue_depth", "ss")
		return v
	}
	var during float64
	nodes[1].Subscribe(func(tuple.Tuple) error {
		during = max(during, depth())
		return nil
	})
	pkts := hopPackets(t)
	if err := e.HopBatch(pkts[:300]); err != nil {
		t.Fatal(err)
	}
	if got := depth(); got != 300 {
		t.Errorf("queue depth after a drain of 300 rows = %v", got)
	}
	if err := e.Run(sliceFeed(pkts[300:])); err != nil {
		t.Fatal(err)
	}
	if during <= 0 || during > 512 {
		t.Errorf("queue depth seen while the node was flushing a window = %v, want 1..512", during)
	}
	if got := depth(); got != 0 {
		t.Errorf("queue depth at end of stream = %v, want 0", got)
	}
}

// The pass-through hop allocates nothing per forwarded row once its
// batches have grown: no tuple is built on either side of the edge.
func TestHopAllocsPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	topo := hopTopo{nodes: []hopNode{
		{name: "low", src: hopPassThrough, parent: -1},
		{name: "agg", src: `SELECT tb, srcIP, sum(len), count(*) FROM low GROUP BY time/1 AS tb, srcIP`, parent: 0},
	}}
	e, nodes := hopBuild(t, topo, nil)
	pkts := hopPackets(t)[:512]
	for i := range pkts {
		pkts[i].Time = 0 // one window: the operator behind the hop is in steady state too
	}
	step := func() {
		if err := e.HopBatch(pkts); err != nil {
			t.Fatal(err)
		}
	}
	step() // batches grow, groups are created
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("%v allocations per 512-row batch across the hop, want 0", allocs)
	}
	if in, out := nodes[1].Stats().TuplesIn, nodes[0].Stats().TuplesOut; in != out || in < 52*512 {
		t.Errorf("tap forwarded %d rows, the node behind it took %d in", out, in)
	}
}

// Under RunParallel the same hop recycles its batches: a spent batch goes
// back to the node that fills it, so a longer run allocates nothing more
// per forwarded row (it used to clone every row onto a channel).
func TestHopParallelRecyclesBatches(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	topo := hopTopo{nodes: []hopNode{
		{name: "low", src: hopPassThrough, parent: -1},
		{name: "agg", src: `SELECT tb, srcIP, sum(len), count(*) FROM low GROUP BY time/1 AS tb, srcIP`, parent: 0},
	}}
	lap := hopPackets(t)[:20000]
	for i := range lap {
		lap[i].Time = 0 // one window, the same groups every lap
	}
	mallocs := func(laps int) (uint64, int64) {
		pkts := make([]trace.Packet, 0, laps*len(lap))
		for i := 0; i < laps; i++ {
			pkts = append(pkts, lap...)
		}
		e, nodes := hopBuild(t, topo, nil)
		feed := sliceFeed(pkts)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := e.RunParallel(feed, 0); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, nodes[1].Stats().TuplesIn
	}
	short, shortRows := mallocs(1)
	long, longRows := mallocs(11)
	if rows := longRows - shortRows; rows != int64(10*len(lap)) {
		t.Fatalf("the long run forwarded %d rows more than the short one, want %d", rows, 10*len(lap))
	}
	// Set-up (goroutines, channels, batches growing) is in both runs; what
	// is left is scheduler noise, far under one allocation per batch.
	if extra := int64(long) - int64(short); extra > int64(10*len(lap)/512) {
		t.Errorf("%d allocations in a 1-lap run, %d in an 11-lap run: %d for %d more forwarded rows, want none per row",
			short, long, extra, 10*len(lap))
	}
}

func snapshotOp(t *testing.T, op *operator.Operator) []byte {
	t.Helper()
	enc := checkpoint.NewEncoder()
	if err := op.Snapshot(enc); err != nil {
		t.Fatal(err)
	}
	return enc.Bytes()
}
