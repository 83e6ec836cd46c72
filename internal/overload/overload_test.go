package overload

import (
	"testing"
	"time"
)

func TestParsePolicy(t *testing.T) {
	cases := map[string]Policy{
		"drop-tail":   DropTail,
		"DROP_TAIL":   DropTail,
		"droptail":    DropTail,
		"":            DropTail,
		"shed-sample": ShedSample,
		"shed_sample": ShedSample,
		"shed":        ShedSample,
		"block":       Block,
		"BLOCK":       Block,
	}
	for in, want := range cases {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
	// String round-trips through ParsePolicy for every policy.
	for _, p := range []Policy{DropTail, ShedSample, Block} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round-trip %v: got %v, %v", p, got, err)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.HighWater != 0.8 || c.UpdateEvery != 64 || c.BlockTimeout != 5*time.Millisecond {
		t.Errorf("unexpected defaults: %+v", c)
	}
}

// TestAIMDDecreaseAndRecover drives the controller with a pinned-high then
// pinned-low occupancy and checks the admit probability collapses
// multiplicatively and recovers additively.
func TestAIMDDecreaseAndRecover(t *testing.T) {
	cfg := Config{Policy: ShedSample, UpdateEvery: 8, Seed: 1}
	c := NewController(cfg)
	const capacity = 100

	// Sustained occupancy above high water: p decays toward its floor.
	for i := 0; i < 8*20; i++ {
		c.Admit(95, capacity)
	}
	if p := c.AdmitProbability(); p > 0.05 {
		t.Errorf("admit probability %v did not collapse under sustained overload", p)
	}
	if c.State() != Shedding {
		t.Errorf("state = %v, want shedding", c.State())
	}

	// Occupancy back below low water: p recovers to 1.
	for i := 0; i < 8*40; i++ {
		c.Admit(5, capacity)
	}
	if p := c.AdmitProbability(); p != 1 {
		t.Errorf("admit probability %v did not recover", p)
	}
	if c.State() != Normal {
		t.Errorf("state = %v, want normal", c.State())
	}
}

// TestAccountingExact checks offered == admitted + shed for shed-sample.
func TestAccountingExact(t *testing.T) {
	c := NewController(Config{Policy: ShedSample, UpdateEvery: 4, Seed: 7})
	admitted := uint64(0)
	const n = 10_000
	for i := 0; i < n; i++ {
		if c.Admit(90, 100) {
			admitted++
		}
	}
	if c.Offered() != n {
		t.Errorf("offered = %d, want %d", c.Offered(), n)
	}
	if c.Admitted() != admitted {
		t.Errorf("admitted counter %d != observed %d", c.Admitted(), admitted)
	}
	if c.Admitted()+c.Shed() != c.Offered() {
		t.Errorf("admitted %d + shed %d != offered %d", c.Admitted(), c.Shed(), c.Offered())
	}
	if c.Shed() == 0 {
		t.Error("sustained 90% occupancy shed nothing")
	}
}

// TestDropTailAlwaysAdmits checks the default policy never sheds at the
// gate and transitions to saturated only on a ring drop.
func TestDropTailAlwaysAdmits(t *testing.T) {
	c := NewController(Config{Policy: DropTail, UpdateEvery: 4})
	for i := 0; i < 100; i++ {
		if !c.Admit(100, 100) {
			t.Fatal("drop-tail shed a packet at the gate")
		}
	}
	if c.State() != Shedding { // occupancy above high water
		t.Errorf("state = %v, want shedding", c.State())
	}
	c.NoteDrop(3)
	if c.State() != Saturated {
		t.Errorf("state after drop = %v, want saturated", c.State())
	}
	if c.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", c.Dropped())
	}
	// With occupancy back down and no new drops, the next update windows
	// leave saturated.
	for i := 0; i < 8; i++ {
		c.Admit(0, 100)
	}
	if c.State() != Normal {
		t.Errorf("state after recovery = %v, want normal", c.State())
	}
}

func TestTransitionCallback(t *testing.T) {
	c := NewController(Config{Policy: ShedSample, UpdateEvery: 2, Seed: 1})
	var transitions []State
	c.OnTransition(func(from, to State, occ int, p float64) {
		transitions = append(transitions, to)
	})
	for i := 0; i < 10; i++ {
		c.Admit(99, 100)
	}
	for i := 0; i < 200; i++ {
		c.Admit(0, 100)
	}
	if len(transitions) < 2 || transitions[0] != Shedding || transitions[len(transitions)-1] != Normal {
		t.Errorf("unexpected transition sequence: %v", transitions)
	}
}

func TestSnapshot(t *testing.T) {
	c := NewController(Config{Policy: ShedSample, UpdateEvery: 4, Seed: 3})
	for i := 0; i < 100; i++ {
		c.Admit(90, 100)
	}
	s := c.Snapshot("query", "0")
	if s.Node != "query" || s.Ring != "0" || s.Policy != "shed-sample" {
		t.Errorf("snapshot labels wrong: %+v", s)
	}
	if s.Offered != 100 || s.Admitted+s.Shed != s.Offered {
		t.Errorf("snapshot accounting wrong: %+v", s)
	}
	if s.PeakOcc != 90 {
		t.Errorf("peak occupancy = %d, want 90", s.PeakOcc)
	}
}

// TestDeterminism: equal seeds make identical admission decisions.
func TestDeterminism(t *testing.T) {
	run := func() []bool {
		c := NewController(Config{Policy: ShedSample, UpdateEvery: 4, Seed: 42})
		out := make([]bool, 1000)
		for i := range out {
			out[i] = c.Admit(85, 100)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between equal-seed runs", i)
		}
	}
}
