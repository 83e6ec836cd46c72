package profile

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestNilProfileIsSafe(t *testing.T) {
	var np *NodeProfile
	if pt := np.Start(); pt != 0 {
		t.Errorf("nil Start = %d, want 0", pt)
	}
	if pt := np.Charge(StageWalk, 0, 1, 1); pt != 0 {
		t.Errorf("nil Charge = %d, want 0", pt)
	}
	var p *Profiler
	if np := p.NodeShard("x", 0); np != nil {
		t.Errorf("nil Profiler.NodeShard = %v, want nil", np)
	}
	p.Release(np)
	rep := p.Report()
	if len(rep.Nodes) != 0 {
		t.Errorf("nil Profiler.Report has %d nodes, want 0", len(rep.Nodes))
	}
}

func TestNodeShardsAreDistinct(t *testing.T) {
	p := New()
	a, b := p.NodeShard("n", 0), p.NodeShard("n", 1)
	if a == b {
		t.Fatal("distinct shards share a NodeProfile")
	}
	if p.NodeShard("n", 0) != a {
		t.Fatal("re-lookup returned a different NodeProfile")
	}
	if p.Node("n") == a {
		t.Fatal("unsharded profile aliases shard 0")
	}
}

// TestReleaseForgetsNode: a released profile leaves the report, a later
// registration under its name starts from zero, and releasing a stale
// handle does not take the new registration with it.
func TestReleaseForgetsNode(t *testing.T) {
	p := New()
	old := p.Node("q")
	old.Charge(StageWalk, old.Start(), 10, 5)
	p.Release(old)
	if n := len(p.Report().Nodes); n != 0 {
		t.Fatalf("report has %d nodes after release, want 0", n)
	}
	fresh := p.Node("q")
	if fresh == old {
		t.Fatal("re-registration returned the released profile")
	}
	p.Release(old)
	rep := p.Report()
	if len(rep.Nodes) != 1 {
		t.Fatalf("report has %d nodes after stale release, want 1", len(rep.Nodes))
	}
	if w := rep.Nodes[0].Stages[StageWalk]; w.RowsIn != 0 || w.SelfNS != 0 {
		t.Errorf("re-registered node inherited rows_in=%d self_ns=%v", w.RowsIn, w.SelfNS)
	}
}

// TestReportSumsStageTime: a stage's report is the plain sum of what was
// charged to it — no scaling, no compensation.
func TestReportSumsStageTime(t *testing.T) {
	p := New()
	np := p.Node("n")
	t0 := Now()
	for i := 0; i < 4; i++ {
		np.Charge(StageKernelWhere, t0-1000, 25, 15)
	}
	rep := p.Report()
	if len(rep.Nodes) != 1 {
		t.Fatalf("report has %d nodes, want 1", len(rep.Nodes))
	}
	sr := rep.Nodes[0].Stages[StageKernelWhere]
	// Each charge is 1000ns plus however long after t0 its clock was read.
	if sr.SelfNS < 4000 || sr.SelfNS > 4000+4*float64(Now()-t0) {
		t.Errorf("SelfNS = %v, want 4000 plus the four clock offsets", sr.SelfNS)
	}
	if sr.RowsIn != 100 || sr.RowsOut != 60 || sr.Selectivity != 0.6 {
		t.Errorf("rows %d → %d selectivity %v, want 100 → 60 (0.6)", sr.RowsIn, sr.RowsOut, sr.Selectivity)
	}
	if rep.TotalSelfNS != sr.SelfNS || sr.TimePct != 100 {
		t.Errorf("total %v, stage %v at %v%%: want the one stage to be all of it", rep.TotalSelfNS, sr.SelfNS, sr.TimePct)
	}
}

func TestReportStageSchemaIsStable(t *testing.T) {
	p := New()
	p.Node("a")
	p.NodeShard("b", 0)
	rep := p.Report()
	for _, n := range rep.Nodes {
		if len(n.Stages) != int(NumStages) {
			t.Fatalf("node %s has %d stages, want %d", n.Node, len(n.Stages), NumStages)
		}
		for s := Stage(0); s < NumStages; s++ {
			if n.Stages[s].Stage != s.String() {
				t.Errorf("node %s stage %d = %q, want %q", n.Node, s, n.Stages[s].Stage, s)
			}
		}
	}
	// The report must marshal cleanly even with zero activity (no NaN).
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("marshal: %v", err)
	}
}

func TestRenderSkipsIdleNodes(t *testing.T) {
	p := New()
	p.Node("idle")
	busy := p.Node("busy")
	busy.Charge(StageWalk, busy.Start()-1000, 10, 5)
	out := p.Report().Render()
	if strings.Contains(out, "idle") {
		t.Errorf("Render shows idle node:\n%s", out)
	}
	if !strings.Contains(out, "busy") || !strings.Contains(out, "walk") {
		t.Errorf("Render missing busy node or stage:\n%s", out)
	}
}

// TestStagesTileTime: consecutive charges share their boundaries, and a
// stage that nests self-clocked work is charged the remainder, so the
// stages sum to the span from Start to the last reading exactly.
func TestStagesTileTime(t *testing.T) {
	p := New()
	np := p.Node("n")
	t0 := np.Start()
	pt := np.Charge(StageKernelGroupBy, t0, 1, 1)
	pt = np.Charge(StageKernelWhere, pt, 1, 1)
	ft := np.Start() // a flush inside the walk clocks itself…
	nested := np.Charge(StageFlush, ft, 1, 1) - ft
	end := np.Charge(StageWalk, pt+nested, 1, 1) // …and the walk gets the rest
	var total int64
	for s := Stage(0); s < NumStages; s++ {
		if ns := np.stages[s].ns.Load(); ns < 0 {
			t.Errorf("stage %s charged %dns", s, ns)
		} else {
			total += ns
		}
	}
	if total != end-t0 {
		t.Errorf("stages sum to %dns over a %dns span", total, end-t0)
	}
}

func TestObserveWindowFeedsLatencyReport(t *testing.T) {
	p := New()
	np := p.Node("n")
	np.ObserveWindow(0.002)
	np.ObserveWindow(0.004)
	rep := p.Report()
	lt := rep.Nodes[0].Latency
	if lt == nil {
		t.Fatal("no latency report after ObserveWindow")
	}
	if lt.Windows != 2 {
		t.Errorf("latency windows = %d, want 2", lt.Windows)
	}
	if lt.P50 <= 0 || lt.P99 < lt.P50 {
		t.Errorf("quantiles p50=%v p99=%v, want 0 < p50 <= p99", lt.P50, lt.P99)
	}
	if rep.Nodes[0].Windows != 2 {
		t.Errorf("node windows = %d, want 2", rep.Nodes[0].Windows)
	}
}
