// Package flow implements flow aggregation and the paper's sampled-flows
// extension (§8): integrating flow aggregation with subset-sum sampling in
// a single query-processing phase.
//
// The straightforward pipeline — aggregate packets into flows, then feed
// completed flows to a sampling query — needs one group per live flow.
// Under a DDoS storm of tiny spoofed flows that table exhausts memory and
// the query fails. The integrated sampler admits a *new* flow only through
// the basic subset-sum predicate and purges small flows in cleaning
// phases, so its table is bounded by theta*N entries no matter how many
// distinct flows the stream carries, while byte-volume estimates remain
// accurate (heavy flows are always admitted once their first large packet
// arrives, and admitted flows accumulate their full subsequent volume).
package flow

import (
	"fmt"

	"streamop/internal/sample/subsetsum"
	"streamop/internal/trace"
)

// Record is one (possibly sampled) flow.
type Record struct {
	Key trace.FlowKey
	// Packets and Bytes accumulate over the packets observed after the
	// flow entered the table.
	Packets int64
	Bytes   int64
	// First and Last are observation timestamps in nanoseconds.
	First, Last uint64
	// Adj is the subset-sum adjusted byte weight: summing Adj over the
	// sampled flows estimates total traffic volume.
	Adj float64
}

// Aggregator is the naive exact flow table used by the
// aggregate-then-sample baseline. MaxFlows imitates a memory budget: when
// the table would exceed it, Offer fails — the failure mode the integrated
// sampler exists to avoid.
type Aggregator struct {
	maxFlows int
	table    map[trace.FlowKey]*Record
	order    []*Record
}

// ErrTableFull reports that the flow table exceeded its memory budget.
var ErrTableFull = fmt.Errorf("flow: flow table exceeded its memory budget")

// NewAggregator returns an exact flow aggregator. maxFlows <= 0 means
// unbounded.
func NewAggregator(maxFlows int) *Aggregator {
	return &Aggregator{maxFlows: maxFlows, table: make(map[trace.FlowKey]*Record)}
}

// Offer folds one packet into its flow. It returns ErrTableFull when a new
// flow would exceed the budget.
func (a *Aggregator) Offer(p trace.Packet) error {
	key := p.Key()
	if rec, ok := a.table[key]; ok {
		rec.update(p)
		return nil
	}
	if a.maxFlows > 0 && len(a.table) >= a.maxFlows {
		return ErrTableFull
	}
	rec := newRecord(p)
	a.table[key] = rec
	a.order = append(a.order, rec)
	return nil
}

// Flows returns the aggregated flows in first-seen order.
func (a *Aggregator) Flows() []Record {
	out := make([]Record, len(a.order))
	for i, r := range a.order {
		out[i] = *r
	}
	return out
}

// Size returns the number of live flows.
func (a *Aggregator) Size() int { return len(a.table) }

// Reset clears the table for a new window.
func (a *Aggregator) Reset() {
	a.table = make(map[trace.FlowKey]*Record)
	a.order = a.order[:0]
}

func newRecord(p trace.Packet) *Record {
	return &Record{
		Key:     p.Key(),
		Packets: 1,
		Bytes:   int64(p.Len),
		First:   p.Time,
		Last:    p.Time,
		Adj:     float64(p.Len),
	}
}

func (r *Record) update(p trace.Packet) {
	r.Packets++
	r.Bytes += int64(p.Len)
	r.Adj += float64(p.Len)
	r.Last = p.Time
}

// Config parameterizes the integrated sampled-flows operator.
type Config struct {
	// TargetSize is N, the desired number of sampled flows per window.
	TargetSize int
	// InitialZ is the first window's admission threshold in bytes.
	InitialZ float64
	// Theta bounds the table at Theta*TargetSize entries (cleaning
	// trigger). The paper uses 2.
	Theta float64
	// RelaxFactor carries z/f into the next window (the relaxed fix).
	RelaxFactor float64
}

func (c *Config) validate() error {
	if c.TargetSize <= 0 {
		return fmt.Errorf("flow: TargetSize must be positive, got %d", c.TargetSize)
	}
	if c.InitialZ <= 0 {
		return fmt.Errorf("flow: InitialZ must be positive, got %v", c.InitialZ)
	}
	if c.Theta <= 1 {
		return fmt.Errorf("flow: Theta must exceed 1, got %v", c.Theta)
	}
	if c.RelaxFactor < 1 {
		return fmt.Errorf("flow: RelaxFactor must be >= 1, got %v", c.RelaxFactor)
	}
	return nil
}

// Sampler is the integrated flow-aggregation + subset-sum sampler.
type Sampler struct {
	cfg   Config
	th    subsetsum.Threshold // Big counts flows with Adj > Z
	table map[trace.FlowKey]*Record
	order []*Record
}

// NewSampler returns an integrated sampled-flows operator.
func NewSampler(cfg Config) (*Sampler, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Sampler{
		cfg:   cfg,
		th:    subsetsum.Threshold{Z: cfg.InitialZ},
		table: make(map[trace.FlowKey]*Record),
	}, nil
}

// Offer folds one packet in. A packet of an already-sampled flow always
// accumulates; a packet of an unknown flow creates the flow only if the
// basic subset-sum predicate admits it. It reports whether the packet's
// flow is (now) in the table.
func (s *Sampler) Offer(p trace.Packet) bool {
	key := p.Key()
	if rec, ok := s.table[key]; ok {
		rec.update(p)
		if rec.Adj > s.th.Z && rec.Adj-float64(p.Len) <= s.th.Z {
			s.th.Big++
		}
		return true
	}
	w := float64(p.Len)
	if !s.th.Admit(w) {
		return false
	}
	rec := newRecord(p)
	rec.Adj = max(w, s.th.Z)
	s.table[key] = rec
	s.order = append(s.order, rec)
	if len(s.table) > int(s.cfg.Theta*float64(s.cfg.TargetSize)) {
		s.clean()
	}
	return true
}

// clean raises the threshold and purges small flows — "the key trick is
// that small flows can be quickly sampled and purged from the group
// table".
func (s *Sampler) clean() {
	s.th.BeginClean(len(s.table), s.cfg.TargetSize)
	s.th.Counter = 0
	kept := s.order[:0]
	for _, rec := range s.order {
		if s.th.CleanKeep(rec.Adj) {
			rec.Adj = max(rec.Adj, s.th.ZPrev, s.th.Z)
			kept = append(kept, rec)
			continue
		}
		delete(s.table, rec.Key)
	}
	clear(s.order[len(kept):])
	s.order = kept
}

// EndWindow emits the window's sampled flows (subsampled to at most N),
// carries the relaxed threshold into the next window and resets the table.
func (s *Sampler) EndWindow() []Record {
	for i := 0; len(s.table) > s.cfg.TargetSize && i < subsetsum.MaxFinalCleanings; i++ {
		s.clean()
	}
	out := make([]Record, len(s.order))
	for i, r := range s.order {
		out[i] = *r
	}
	s.th = s.th.Carry(s.cfg.RelaxFactor, s.cfg.InitialZ)
	s.table = make(map[trace.FlowKey]*Record)
	s.order = s.order[:0]
	return out
}

// Size returns the current table occupancy.
func (s *Sampler) Size() int { return len(s.table) }

// MaxSize returns the table bound theta*N.
func (s *Sampler) MaxSize() int { return int(s.cfg.Theta * float64(s.cfg.TargetSize)) }

// Z returns the current admission threshold.
func (s *Sampler) Z() float64 { return s.th.Z }

// Cleanings returns the cleaning phases of the current window.
func (s *Sampler) Cleanings() int { return s.th.Cleanings }

// EstimateBytes sums the adjusted weights of a sampled flow set.
func EstimateBytes(flows []Record) float64 {
	var sum float64
	for i := range flows {
		sum += flows[i].Adj
	}
	return sum
}
