package overload

import (
	"testing"

	"streamop/internal/checkpoint"
)

// TestEncodeDecodeRoundTrip drives a controller into a degraded state,
// encodes it, decodes into a fresh controller, and checks that both make
// the identical sequence of admission decisions afterwards — the property
// the engine's checkpoint/restore of the source gate depends on.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	cfg := Config{Policy: ShedSample, Seed: 99}
	a := NewController(cfg)

	// Push the controller around: full ring, drops, partial recovery.
	for i := 0; i < 500; i++ {
		a.Admit(60, 64)
	}
	a.NoteDrop(17)
	a.ObserveRing(500, 17, 62, 64)
	for i := 0; i < 100; i++ {
		a.Admit(10, 64)
	}

	enc := checkpoint.NewEncoder()
	a.Encode(enc)
	b := NewController(cfg)
	d := checkpoint.NewDecoder(enc.Bytes())
	b.Decode(d)
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("decode: err %v, %d bytes left", d.Err(), d.Remaining())
	}

	if a.AdmitProbability() != b.AdmitProbability() {
		t.Fatalf("p diverged: %v vs %v", a.AdmitProbability(), b.AdmitProbability())
	}
	if a.State() != b.State() {
		t.Fatalf("state diverged: %v vs %v", a.State(), b.State())
	}
	if a.Offered() != b.Offered() || a.Admitted() != b.Admitted() ||
		a.Shed() != b.Shed() || a.Dropped() != b.Dropped() ||
		a.PeakOccupancy() != b.PeakOccupancy() {
		t.Fatal("accounting counters diverged after decode")
	}

	// The decisive property: identical future admission decisions,
	// including the randomized shed-sample draws.
	occs := []int{60, 61, 62, 63, 64, 30, 10, 55, 63, 64}
	for round := 0; round < 50; round++ {
		occ := occs[round%len(occs)]
		if x, y := a.Admit(occ, 64), b.Admit(occ, 64); x != y {
			t.Fatalf("admission decision diverged at round %d (occ %d): %v vs %v", round, occ, x, y)
		}
	}
	if a.Offered() != b.Offered() || a.Admitted() != b.Admitted() {
		t.Fatal("counters diverged after post-decode admissions")
	}
}

// TestQuotaEncodeDecodeRoundTrip: a quota reads back field for field.
func TestQuotaEncodeDecodeRoundTrip(t *testing.T) {
	q := Quota{Rows: 8, Bytes: 400, BurstSec: 0.5, WarnLag: 3, DetachAfter: 9}
	enc := checkpoint.NewEncoder()
	q.Encode(enc)
	var got Quota
	d := checkpoint.NewDecoder(enc.Bytes())
	got.Decode(d)
	if d.Err() != nil || d.Remaining() != 0 || got != q {
		t.Fatalf("decoded %+v (err %v, %d bytes left), want %+v", got, d.Err(), d.Remaining(), q)
	}
}
