package experiments

import (
	"streamop/internal/profile"
)

// StageCost is one plan stage's share of the profiled operator run,
// aggregated across nodes (and shards, when present).
type StageCost struct {
	Stage    string  `json:"stage"`
	SelfNS   float64 `json:"self_ns"`
	TimePct  float64 `json:"time_pct"`      // share of total attributed time
	NSPerPkt float64 `json:"ns_per_packet"` // SelfNS / Packets
	RowsIn   int64   `json:"rows_in"`
	RowsOut  int64   `json:"rows_out"`
}

// ProfileResult is the cost-attribution ablation: the Overhead workload
// rerun on the batch entry point with the per-node profiler attached, so
// the genericity factor breaks down into per-stage costs. Coverage
// compares the profiler's attributed time against the measured wall time
// of the same run: the stage clocks tile the run, so what is missing is
// the loop around them.
type ProfileResult struct {
	Packets int64 `json:"packets"`
	// OperatorNSPerPacket / DirectNSPerPacket mirror OverheadResult; the
	// operator side here carries the (≤5%-budgeted) profiler.
	OperatorNSPerPacket float64 `json:"operator_ns_per_packet"`
	DirectNSPerPacket   float64 `json:"direct_ns_per_packet"`
	// Factor is operator cost over hand-coded cost.
	Factor float64 `json:"overhead_factor"`
	// WallNS is the operator run's measured wall time; AttributedNS is
	// the profiler's total self-time over the same run.
	WallNS       int64   `json:"wall_ns"`
	AttributedNS float64 `json:"attributed_ns"`
	Coverage     float64 `json:"coverage"` // AttributedNS / WallNS
	// Stages aggregates the attribution across nodes, sorted by SelfNS
	// descending — the rows of the cost table.
	Stages []StageCost `json:"stages"`
	// Report is the full per-node profile (the PROFILE.json shape).
	Report profile.Report `json:"report"`
}

// ProfileAblation reruns the genericity-cost ablation (Overhead) with the
// profiler attached and attributes the operator's wall time to plan
// stages: the breakdown behind `experiments -fig profile`.
func ProfileAblation(seed uint64, duration float64, n int) (ProfileResult, error) {
	var res ProfileResult

	pkts, err := steadyPackets(seed, duration)
	if err != nil {
		return res, err
	}
	res.Packets = int64(len(pkts))

	// Hand-coded baseline and the query with the profiler attached, one
	// pass each.
	directNS, _, err := directPass(pkts, n)
	if err != nil {
		return res, err
	}
	q, opNS, err := opPass(pkts, seed, n, true)
	if err != nil {
		return res, err
	}
	res.WallNS = max(int64(opNS), 1)
	res.Report = q.Profiler().Report()
	res.AttributedNS = res.Report.TotalSelfNS
	res.Coverage = res.AttributedNS / float64(res.WallNS)
	res.Stages = aggregateStages(res.Report, res.Packets)

	res.OperatorNSPerPacket = float64(res.WallNS) / float64(len(pkts))
	res.DirectNSPerPacket = directNS / float64(len(pkts))
	if directNS > 0 {
		res.Factor = float64(res.WallNS) / directNS
	}
	return res, nil
}

// aggregateStages folds the per-node per-stage attribution into one row
// per stage, ordered most expensive first.
func aggregateStages(rep profile.Report, packets int64) []StageCost {
	byStage := map[string]*StageCost{}
	var order []string
	for _, n := range rep.Nodes {
		for _, s := range n.Stages {
			c := byStage[s.Stage]
			if c == nil {
				c = &StageCost{Stage: s.Stage}
				byStage[s.Stage] = c
				order = append(order, s.Stage)
			}
			c.SelfNS += s.SelfNS
			c.RowsIn += s.RowsIn
			c.RowsOut += s.RowsOut
		}
	}
	out := make([]StageCost, 0, len(order))
	for _, name := range order {
		c := byStage[name]
		if c.SelfNS == 0 && c.RowsIn == 0 && c.RowsOut == 0 {
			continue
		}
		if rep.TotalSelfNS > 0 {
			c.TimePct = 100 * c.SelfNS / rep.TotalSelfNS
		}
		if packets > 0 {
			c.NSPerPkt = c.SelfNS / float64(packets)
		}
		out = append(out, *c)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].SelfNS > out[j-1].SelfNS; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
