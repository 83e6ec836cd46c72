package profile

import (
	"fmt"
	"sort"
	"strings"
)

// StageReport is one stage's cost attribution in a NodeReport. SelfNS is
// the sum of the stage's clock readings: measured, not estimated.
type StageReport struct {
	Stage       string  `json:"stage"`
	RowsIn      int64   `json:"rows_in"`
	RowsOut     int64   `json:"rows_out"`
	Selectivity float64 `json:"selectivity"` // RowsOut/RowsIn; 1 when RowsIn is 0
	SelfNS      float64 `json:"self_ns"`     // total stage self-time
	NSPerRow    float64 `json:"ns_per_row"`  // SelfNS / max(RowsIn, 1)
	TimePct     float64 `json:"time_pct"`    // share of the node's SelfNS
}

// LatencyReport summarizes a node's window end-to-end latency.
type LatencyReport struct {
	Windows int64   `json:"windows"`
	P50     float64 `json:"p50_seconds"`
	P95     float64 `json:"p95_seconds"`
	P99     float64 `json:"p99_seconds"`
}

// NodeReport is one plan node's (or shard replica's) attribution. Stages
// always holds NumStages entries in Stage order, so consumers (jq, the CI
// schema check) can index it positionally.
type NodeReport struct {
	Node        string         `json:"node"`
	Shard       int            `json:"shard"` // -1 when unsharded
	SelfNS      float64        `json:"self_ns"`
	Windows     int64          `json:"windows"`
	Groups      int64          `json:"groups"`
	Supergroups int64          `json:"supergroups"`
	GroupBytes  int64          `json:"group_bytes"`
	Latency     *LatencyReport `json:"window_latency,omitempty"`
	Stages      []StageReport  `json:"stages"`
}

// Report is the full profile of one run: the PROFILE.json artifact, the
// /debug/profile payload and the input to Render.
type Report struct {
	ElapsedNS   int64        `json:"elapsed_ns"` // since profiler construction
	TotalSelfNS float64      `json:"total_self_ns"`
	Nodes       []NodeReport `json:"nodes"`
}

// Report builds a point-in-time attribution from the accumulators. Safe
// from any goroutine while the run is in flight.
func (p *Profiler) Report() Report {
	if p == nil {
		return Report{}
	}
	p.mu.Lock()
	nodes := make([]*NodeProfile, 0, len(p.nodes))
	for _, np := range p.nodes {
		nodes = append(nodes, np)
	}
	p.mu.Unlock()
	sort.Slice(nodes, func(i, j int) bool {
		a, b := nodes[i].key, nodes[j].key
		if a.name != b.name {
			return a.name < b.name
		}
		return a.shard < b.shard
	})
	rep := Report{ElapsedNS: Now() - p.start}
	for _, np := range nodes {
		nr := np.report()
		rep.TotalSelfNS += nr.SelfNS
		rep.Nodes = append(rep.Nodes, nr)
	}
	return rep
}

func (np *NodeProfile) report() NodeReport {
	nr := NodeReport{
		Node:        np.key.name,
		Shard:       np.key.shard,
		Windows:     np.windows.Load(),
		Groups:      np.groups.Load(),
		Supergroups: np.supergroups.Load(),
		GroupBytes:  np.groupBytes.Load(),
		Stages:      make([]StageReport, NumStages),
	}
	if n := np.latency.Count(); n > 0 {
		nr.Latency = &LatencyReport{
			Windows: n,
			P50:     np.latency.Quantile(0.50),
			P95:     np.latency.Quantile(0.95),
			P99:     np.latency.Quantile(0.99),
		}
	}
	for s := Stage(0); s < NumStages; s++ {
		acc := &np.stages[s]
		sr := StageReport{
			Stage:       s.String(),
			RowsIn:      acc.rowsIn.Load(),
			RowsOut:     acc.rowsOut.Load(),
			Selectivity: 1,
			SelfNS:      float64(acc.ns.Load()),
		}
		if sr.RowsIn > 0 {
			sr.Selectivity = float64(sr.RowsOut) / float64(sr.RowsIn)
			sr.NSPerRow = sr.SelfNS / float64(sr.RowsIn)
		}
		nr.SelfNS += sr.SelfNS
		nr.Stages[s] = sr
	}
	if nr.SelfNS > 0 {
		for s := range nr.Stages {
			nr.Stages[s].TimePct = 100 * nr.Stages[s].SelfNS / nr.SelfNS
		}
	}
	return nr
}

// Render writes the report as a text plan tree: one block per node with
// per-stage time share, row flow and per-row cost — the `gsq -profile`
// exit summary.
func (r Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile: exact per-batch stage clocks · attributed %s · elapsed %s\n",
		fmtNS(r.TotalSelfNS), fmtNS(float64(r.ElapsedNS)))
	for _, n := range r.Nodes {
		// Skip nodes that saw no activity (e.g. a sharded node's idle
		// unsharded profile after RunParallel).
		if n.SelfNS == 0 && n.Windows == 0 && !anyRows(n.Stages) {
			continue
		}
		name := n.Node
		if n.Shard >= 0 {
			name = fmt.Sprintf("%s[shard %d]", n.Node, n.Shard)
		}
		fmt.Fprintf(&b, "%s  self %s", name, fmtNS(n.SelfNS))
		if n.Windows > 0 {
			fmt.Fprintf(&b, " · windows %d", n.Windows)
		}
		if n.Groups > 0 || n.Supergroups > 0 {
			fmt.Fprintf(&b, " · groups %d (~%s) · supergroups %d",
				n.Groups, fmtBytes(n.GroupBytes), n.Supergroups)
		}
		b.WriteByte('\n')
		if lt := n.Latency; lt != nil {
			fmt.Fprintf(&b, "  window latency p50=%s p95=%s p99=%s (%d windows)\n",
				fmtNS(lt.P50*1e9), fmtNS(lt.P95*1e9), fmtNS(lt.P99*1e9), lt.Windows)
		}
		live := make([]StageReport, 0, len(n.Stages))
		for _, s := range n.Stages {
			if s.SelfNS > 0 || s.RowsIn > 0 || s.RowsOut > 0 {
				live = append(live, s)
			}
		}
		for i, s := range live {
			branch := "├─"
			if i == len(live)-1 {
				branch = "└─"
			}
			fmt.Fprintf(&b, "  %s %-14s %5.1f%%  %9s  %d → %d rows", branch, s.Stage, s.TimePct, fmtNS(s.SelfNS), s.RowsIn, s.RowsOut)
			if s.RowsIn > 0 && s.RowsOut != s.RowsIn {
				fmt.Fprintf(&b, " (%.1f%%)", 100*s.Selectivity)
			}
			if s.NSPerRow > 0 {
				fmt.Fprintf(&b, "  %.0f ns/row", s.NSPerRow)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func anyRows(stages []StageReport) bool {
	for _, s := range stages {
		if s.RowsIn > 0 || s.RowsOut > 0 {
			return true
		}
	}
	return false
}

func fmtNS(ns float64) string {
	switch {
	case ns < 0:
		return "0"
	case ns < 1e3:
		return fmt.Sprintf("%.0fns", ns)
	case ns < 1e6:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	case ns < 1e9:
		return fmt.Sprintf("%.1fms", ns/1e6)
	default:
		return fmt.Sprintf("%.2fs", ns/1e9)
	}
}

func fmtBytes(b int64) string {
	switch {
	case b < 1<<10:
		return fmt.Sprintf("%d B", b)
	case b < 1<<20:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	}
}
