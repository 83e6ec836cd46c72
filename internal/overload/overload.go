// Package overload is the engine's admission-control layer: the policy a
// node's ring buffer applies when the offered packet rate outruns the
// consumer behind it. The paper's premise is that a sampling operator must
// survive line-rate overload gracefully — Gigascope counts tuple drops at
// the NIC ring and relies on the CLEANING phases to shed *state* under
// pressure. This package adds the complementary half: shedding *load* at
// the ring, under an explicit, observable policy, so bounded-memory
// operation is honored end to end and every rejected packet is accounted
// for exactly (offered == admitted + shed, admitted == enqueued + dropped).
//
// Three policies are selectable (Engine.SetOverload, or gsq -overload):
//
//	drop-tail    the ring's native behavior: a push into a full ring is
//	             dropped and counted. Zero admission overhead; the default.
//	shed-sample  probabilistic admission ahead of the ring. The admit
//	             probability adapts to ring occupancy by AIMD: multiplicative
//	             decrease while occupancy sits above the high-water mark,
//	             additive recovery below the low-water mark, half of it.
//	             Under sustained overload the controller converges on the
//	             sustainable rate and keeps occupancy near the high-water
//	             mark instead of pinned at capacity, so bursts still find
//	             headroom.
//	block        backpressure: the producer waits (bounded by BlockTimeout)
//	             for ring space before declaring a drop. Trades pacing
//	             fidelity for completeness.
//
// Each ring's Controller also runs a small observable state machine —
// normal → shedding → saturated — published through the
// streamop_overload_* metric family, overload_state events and
// /debug/state. The companion fault injectors (inject.go) wrap any
// trace.Feed to manufacture the overload deterministically, so chaos tests
// can prove the accounting exact and the paced/parallel paths deadlock-free
// under every policy. See docs/ROBUSTNESS.md.
package overload

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"streamop/internal/xrand"
)

// Policy selects how a producer treats a ring under pressure.
type Policy int

const (
	// DropTail is the ring's native behavior: push into a full ring fails
	// and counts a drop. The default, and the only policy with zero
	// admission overhead.
	DropTail Policy = iota
	// ShedSample admits packets probabilistically ahead of the ring, with
	// the admit probability adapted to ring occupancy by AIMD.
	ShedSample
	// Block backpressures: the producer waits up to BlockTimeout for ring
	// space, then drops.
	Block
)

// String returns the policy's canonical spelling (the -overload flag's
// vocabulary).
func (p Policy) String() string {
	switch p {
	case DropTail:
		return "drop-tail"
	case ShedSample:
		return "shed-sample"
	case Block:
		return "block"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses a policy name. Dashes and underscores are
// interchangeable and matching is case-insensitive, so "drop-tail",
// "DROP_TAIL" and "droptail" all resolve.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.NewReplacer("-", "", "_", "").Replace(s)) {
	case "droptail", "":
		return DropTail, nil
	case "shedsample", "shed":
		return ShedSample, nil
	case "block":
		return Block, nil
	}
	return DropTail, fmt.Errorf("overload: unknown policy %q (want drop-tail, shed-sample or block)", s)
}

// State is one position of the per-ring overload state machine.
type State int32

const (
	// Normal: occupancy below the low-water mark and full admission.
	Normal State = iota
	// Shedding: occupancy crossed the high-water mark, or shed-sample is
	// actively rejecting (admit probability < 1).
	Shedding
	// Saturated: the ring rejected a push (or block timed out) within the
	// current observation window — the node is losing data.
	Saturated
)

func (s State) String() string {
	switch s {
	case Normal:
		return "normal"
	case Shedding:
		return "shedding"
	case Saturated:
		return "saturated"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// The shed-sample AIMD steps: each observation window at or above the
// high-water mark multiplies the admit probability by aimdDecrease,
// floored at minAdmit so the controller keeps probing the sustainable
// rate; each window below the low-water mark adds aimdIncrease.
const (
	aimdDecrease = 0.5
	aimdIncrease = 0.05
	minAdmit     = 0.01
)

// Config parameterizes a Controller. The zero value selects drop-tail with
// the default thresholds; WithDefaults fills unset fields.
type Config struct {
	// Policy selects the admission policy.
	Policy Policy
	// HighWater is the occupancy fraction above which shed-sample decreases
	// the admit probability (and any policy reports Shedding). Default 0.8.
	// Below HighWater/2, the low-water mark, shed-sample recovers it.
	HighWater float64
	// UpdateEvery is the number of offered packets between AIMD/state
	// updates (the observation window). Default 64.
	UpdateEvery int
	// BlockTimeout bounds how long the block policy waits for ring space
	// before counting a drop. Default 5ms.
	BlockTimeout time.Duration
	// Seed seeds the deterministic admission draw (shed-sample).
	Seed uint64
}

// WithDefaults returns cfg with every unset field replaced by its default.
func (c Config) WithDefaults() Config {
	if c.HighWater <= 0 || c.HighWater > 1 {
		c.HighWater = 0.8
	}
	if c.UpdateEvery < 1 {
		c.UpdateEvery = 64
	}
	if c.BlockTimeout <= 0 {
		c.BlockTimeout = 5 * time.Millisecond
	}
	return c
}

// Controller guards one ring buffer: it decides admission ahead of the
// ring and classifies the ring's overload state. Admit, NoteDrop and
// ObserveRing belong to the single producer goroutine that owns the ring;
// the snapshot accessors (State, AdmitProbability, the counters and
// Snapshot) are safe from any goroutine, reading atomics the producer
// publishes as it goes.
type Controller struct {
	cfg Config
	rng *xrand.Rand

	p           float64 // live admit probability (shed-sample)
	sinceUpdate int     // offered packets since the last AIMD/state update
	winDrops    uint64  // drops observed in the current observation window

	offered  atomic.Uint64
	admitted atomic.Uint64
	shed     atomic.Uint64
	dropped  atomic.Uint64
	peakOcc  atomic.Int64
	state    atomic.Int32
	pBits    atomic.Uint64 // admit-probability mirror

	// onTransition, when non-nil, observes state changes (the engine wires
	// it to the telemetry event log). Called on the producer goroutine.
	onTransition func(from, to State, occ int, p float64)
}

// NewController returns a controller for one ring under cfg (defaults
// applied).
func NewController(cfg Config) *Controller {
	cfg = cfg.WithDefaults()
	c := &Controller{cfg: cfg, rng: xrand.New(cfg.Seed ^ 0x9e3779b97f4a7c15), p: 1}
	c.pBits.Store(math.Float64bits(1))
	return c
}

// Config returns the controller's effective (default-filled) configuration.
func (c *Controller) Config() Config { return c.cfg }

// OnTransition registers a state-transition observer (producer goroutine).
func (c *Controller) OnTransition(fn func(from, to State, occ int, p float64)) {
	c.onTransition = fn
}

// Admit decides one packet's admission given the ring's current occupancy
// and capacity. It returns false when the packet must be shed (shed-sample
// only; drop-tail and block always admit — their rejection happens at the
// ring itself and is reported through NoteDrop). Every call counts one
// offered packet and advances the state machine.
func (c *Controller) Admit(occ, capacity int) bool {
	c.offered.Add(1)
	if int64(occ) > c.peakOcc.Load() {
		c.peakOcc.Store(int64(occ))
	}
	c.sinceUpdate++
	if c.sinceUpdate >= c.cfg.UpdateEvery {
		c.update(occ, capacity)
	}
	if c.cfg.Policy == ShedSample && c.p < 1 && c.rng.Float64() >= c.p {
		c.shed.Add(1)
		return false
	}
	c.admitted.Add(1)
	return true
}

// update is the per-window AIMD and state-machine step.
func (c *Controller) update(occ, capacity int) {
	c.sinceUpdate = 0
	frac := 0.0
	if capacity > 0 {
		frac = float64(occ) / float64(capacity)
	}
	if c.cfg.Policy == ShedSample {
		switch {
		case frac >= c.cfg.HighWater:
			c.p *= aimdDecrease
			if c.p < minAdmit {
				c.p = minAdmit
			}
		case frac < c.cfg.HighWater/2 && c.p < 1:
			c.p += aimdIncrease
			if c.p > 1 {
				c.p = 1
			}
		}
		c.pBits.Store(math.Float64bits(c.p))
	}
	next := Normal
	switch {
	case c.winDrops > 0:
		next = Saturated
	case frac >= c.cfg.HighWater || c.p < 1:
		next = Shedding
	}
	c.winDrops = 0
	c.setState(next, occ)
}

func (c *Controller) setState(next State, occ int) {
	prev := State(c.state.Load())
	if next == prev {
		return
	}
	c.state.Store(int32(next))
	if c.onTransition != nil {
		c.onTransition(prev, next, occ, c.p)
	}
}

// ObserveRing reconciles a drop-tail controller with its ring's own
// cumulative counters at a batch boundary. Drop-tail skips the per-packet
// Admit gate entirely and never sheds, so every offered packet counts as
// admitted — offered = admitted = pushed + drops — and the ring's failed
// pushes are the dropped count (admitted == enqueued + dropped, the
// package invariant). The state machine advances on the occupancy observed
// now plus any drops observed since the previous call. Producer goroutine
// only.
func (c *Controller) ObserveRing(pushed, drops uint64, occ, capacity int) {
	if int64(occ) > c.peakOcc.Load() {
		c.peakOcc.Store(int64(occ))
	}
	c.winDrops += drops - c.dropped.Load()
	c.offered.Store(pushed + drops)
	c.admitted.Store(pushed + drops)
	c.dropped.Store(drops)
	frac := 0.0
	if capacity > 0 {
		frac = float64(occ) / float64(capacity)
	}
	next := Normal
	switch {
	case c.winDrops > 0:
		next = Saturated
	case frac >= c.cfg.HighWater:
		next = Shedding
	}
	c.winDrops = 0
	c.setState(next, occ)
}

// NoteDrop records n packets rejected at the ring (a failed push, or a
// block timeout) and forces the Saturated state.
func (c *Controller) NoteDrop(n uint64) {
	if n == 0 {
		return
	}
	c.dropped.Add(n)
	c.winDrops += n
	c.setState(Saturated, 0)
}

// State returns the current overload state (any goroutine).
func (c *Controller) State() State { return State(c.state.Load()) }

// AdmitProbability returns the live shed-sample admit probability
// (1 under the other policies).
func (c *Controller) AdmitProbability() float64 {
	return math.Float64frombits(c.pBits.Load())
}

// Offered returns packets offered to the admission gate.
func (c *Controller) Offered() uint64 { return c.offered.Load() }

// Admitted returns packets the gate admitted toward the ring.
func (c *Controller) Admitted() uint64 { return c.admitted.Load() }

// Shed returns packets rejected by the shed-sample gate.
func (c *Controller) Shed() uint64 { return c.shed.Load() }

// Dropped returns packets rejected at the ring after admission.
func (c *Controller) Dropped() uint64 { return c.dropped.Load() }

// PeakOccupancy returns the highest ring occupancy observed at admission.
func (c *Controller) PeakOccupancy() int { return int(c.peakOcc.Load()) }

// Snapshot is a tear-free copy of one controller's observable state, the
// /debug/state payload.
type Snapshot struct {
	Node     string  `json:"node"`
	Ring     string  `json:"ring"`
	Policy   string  `json:"policy"`
	State    string  `json:"state"`
	AdmitP   float64 `json:"admit_probability"`
	Offered  uint64  `json:"offered"`
	Admitted uint64  `json:"admitted"`
	Shed     uint64  `json:"shed"`
	Dropped  uint64  `json:"dropped"`
	PeakOcc  int     `json:"peak_occupancy"`
}

// Snapshot returns the controller's counters labeled with the owning node
// and ring.
func (c *Controller) Snapshot(node, ring string) Snapshot {
	return Snapshot{
		Node:     node,
		Ring:     ring,
		Policy:   c.cfg.Policy.String(),
		State:    c.State().String(),
		AdmitP:   c.AdmitProbability(),
		Offered:  c.Offered(),
		Admitted: c.Admitted(),
		Shed:     c.Shed(),
		Dropped:  c.Dropped(),
		PeakOcc:  c.PeakOccupancy(),
	}
}
