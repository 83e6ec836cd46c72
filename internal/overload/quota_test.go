package overload

import (
	"testing"

	"streamop/internal/checkpoint"
)

const secNS = uint64(1_000_000_000)

func TestQuotaDefaultsAndPredicates(t *testing.T) {
	var zero Quota
	if zero.Enabled() || zero.LagPolicy() || !zero.Zero() {
		t.Fatalf("zero quota misclassified: %+v", zero)
	}
	q := Quota{Rows: 10}.WithDefaults()
	if q.BurstSec != 1 {
		t.Fatalf("BurstSec default = %v, want 1", q.BurstSec)
	}
	if !q.Enabled() || q.Zero() {
		t.Fatalf("rows-only quota misclassified: %+v", q)
	}
	lag := Quota{WarnLag: 4, DetachAfter: 8}
	if lag.Enabled() || !lag.LagPolicy() || lag.Zero() {
		t.Fatalf("lag-only quota misclassified: %+v", lag)
	}
}

func TestQuotaValidate(t *testing.T) {
	cases := []struct {
		name string
		q    Quota
		ok   bool
	}{
		{"zero", Quota{}, true},
		{"rows", Quota{Rows: 100}, true},
		{"negative rows", Quota{Rows: -1}, false},
		{"negative bytes", Quota{Bytes: -1}, false},
		{"negative burst", Quota{Rows: 1, BurstSec: -2}, false},
		{"warn above detach", Quota{WarnLag: 10, DetachAfter: 5}, false},
		{"warn below detach", Quota{WarnLag: 5, DetachAfter: 10}, true},
	}
	for _, tc := range cases {
		if err := tc.q.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// The row bucket must admit exactly the budget per stream second, shed the
// rest, and keep offered == admitted + shed exact.
func TestTenantGateRowBudget(t *testing.T) {
	g := NewTenantGate(Quota{Rows: 5})
	admitted := 0
	// 20 rows inside one stream second: burst is 5 rows, refill adds ~5.
	for i := 0; i < 20; i++ {
		now := uint64(i) * secNS / 20
		if g.Admit(10, now) {
			admitted++
		}
	}
	if got := int(g.Admitted()); got != admitted {
		t.Fatalf("Admitted() = %d, counted %d", got, admitted)
	}
	if g.Offered() != g.Admitted()+g.Shed() {
		t.Fatalf("accounting broken: offered=%d admitted=%d shed=%d",
			g.Offered(), g.Admitted(), g.Shed())
	}
	if admitted < 5 || admitted > 10 {
		t.Fatalf("admitted %d rows in one second under a 5 rows/s quota (burst 5)", admitted)
	}
	if !g.Throttled() {
		t.Fatalf("gate should report throttled after shedding")
	}
	// After a long idle stretch the bucket refills to the burst depth.
	for i := 0; i < 5; i++ {
		if !g.Admit(10, 10*secNS+uint64(i)) {
			t.Fatalf("row %d after refill should be admitted", i)
		}
	}
	if g.Throttled() {
		t.Fatalf("gate should report ok after admitting")
	}
}

func TestTenantGateByteBudget(t *testing.T) {
	g := NewTenantGate(Quota{Bytes: 100})
	// Burst = 100 bytes. Four 30-byte rows at t=0: 3 admitted, 4th shed.
	for i := 0; i < 3; i++ {
		if !g.Admit(30, 0) {
			t.Fatalf("row %d should fit in the byte burst", i)
		}
	}
	if g.Admit(30, 0) {
		t.Fatalf("4th row should exceed the byte bucket")
	}
	if g.AdmittedBytes() != 90 || g.ShedBytes() != 30 {
		t.Fatalf("byte accounting = %d admitted / %d shed, want 90/30",
			g.AdmittedBytes(), g.ShedBytes())
	}
}

// A row larger than the whole byte bucket is admitted when the bucket is
// full (never starves) and drains the bucket.
func TestTenantGateOversizeRow(t *testing.T) {
	g := NewTenantGate(Quota{Bytes: 10})
	if !g.Admit(1000, 0) {
		t.Fatalf("oversize row against a full bucket must be admitted")
	}
	if g.Admit(1000, 0) {
		t.Fatalf("second oversize row against a drained bucket must shed")
	}
}

// Replaying the same offer sequence must reproduce the same decisions —
// the property session resume relies on.
func TestTenantGateDeterministicAndResumable(t *testing.T) {
	run := func(g *TenantGate, from, to int) []bool {
		out := make([]bool, 0, to-from)
		for i := from; i < to; i++ {
			out = append(out, g.Admit(25+(i%7), uint64(i)*secNS/50))
		}
		return out
	}
	ref := NewTenantGate(Quota{Rows: 8, Bytes: 400, BurstSec: 0.5})
	want := run(ref, 0, 200)

	// Fresh gate, same sequence: identical decisions.
	again := NewTenantGate(Quota{Rows: 8, Bytes: 400, BurstSec: 0.5})
	got := run(again, 0, 200)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("decision %d differs on replay: %v vs %v", i, want[i], got[i])
		}
	}

	// Encode mid-stream, decode into a new gate, continue: the tail must
	// match the uninterrupted run's, and the counters carry over exactly.
	half := NewTenantGate(Quota{Rows: 8, Bytes: 400, BurstSec: 0.5})
	head := run(half, 0, 100)
	resumed := NewTenantGate(Quota{Rows: 8, Bytes: 400, BurstSec: 0.5})
	enc := checkpoint.NewEncoder()
	half.Encode(enc)
	resumed.Decode(checkpoint.NewDecoder(enc.Bytes()))
	tail := run(resumed, 100, 200)
	for i, d := range append(head, tail...) {
		if want[i] != d {
			t.Fatalf("decision %d differs across encode/decode: %v vs %v", i, want[i], d)
		}
	}
	if resumed.Offered() != ref.Offered() || resumed.Admitted() != ref.Admitted() ||
		resumed.Shed() != ref.Shed() || resumed.ShedBytes() != ref.ShedBytes() {
		t.Fatalf("resumed counters diverge: %+v vs %+v",
			resumed.Snapshot("q"), ref.Snapshot("q"))
	}
}

func TestTenantGateTransitionObserver(t *testing.T) {
	g := NewTenantGate(Quota{Rows: 1, BurstSec: 1})
	var transitions []bool
	g.OnTransition(func(th bool) { transitions = append(transitions, th) })
	g.Admit(1, 0)       // admit (burst)
	g.Admit(1, 0)       // shed -> throttled
	g.Admit(1, 0)       // shed, no transition
	g.Admit(1, 5*secNS) // refilled -> ok
	want := []bool{true, false}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

func TestQuotaSnapshotFields(t *testing.T) {
	g := NewTenantGate(Quota{Rows: 2, Bytes: 64, WarnLag: 3, DetachAfter: 6})
	g.Admit(16, 0)
	s := g.Snapshot("tenant-a")
	if s.Query != "tenant-a" || s.RowsPerSec != 2 || s.BytesPerSec != 64 ||
		s.WarnLag != 3 || s.DetachAfter != 6 || s.Offered != 1 || s.Admitted != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
}
