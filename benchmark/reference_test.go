package main

import (
	"testing"

	"streamop/internal/trace"
)

func TestReferenceAggregates(t *testing.T) {
	pkts := []trace.Packet{
		{Time: 1, SrcIP: 10, DstIP: 1, Len: 100},
		{Time: 2, SrcIP: 11, DstIP: 1, Len: 40},
		{Time: 3, SrcIP: 10, DstIP: 2, Len: 60},
		{Time: 1e9 + 5, SrcIP: 10, DstIP: 1, Len: 1500},
		{Time: 1e9 + 6, SrcIP: 266, DstIP: 1, Len: 40},
	}
	tap := refTap(pkts, bySrc)
	want := []refRow{{0, 10, 160, 2}, {0, 11, 40, 1}, {1, 10, 1500, 1}, {1, 266, 40, 1}}
	if len(tap) != len(want) {
		t.Fatalf("tap rows %v", tap)
	}
	for i := range want {
		if tap[i] != want[i] {
			t.Errorf("tap row %d = %v, want %v", i, tap[i], want[i])
		}
	}
	if pair := refTap(pkts, byPair); len(pair) != 5 {
		t.Errorf("pair-keyed tap has %d rows, want 5", len(pair))
	}
	re := refRegroup(tap)
	if len(re) != 3 || re[0] != (refRow{0, 0, 200, 3}) || re[2] != (refRow{1, 1, 40, 1}) {
		t.Errorf("regroup rows %v", re)
	}
	if sel := refSelect(tap, 8, 2); len(sel) != 1 || sel[0].key != 11 {
		t.Errorf("srcIP %% 8 <> 2 kept %v", sel) // 10 and 266 are 2 mod 8
	}
	// Two laps of the same rows, the second a lap length later, equal the
	// digest of the rows written out twice.
	var byHand digest
	for _, shift := range []uint64{0, 2} {
		for _, r := range tap {
			byHand.add(hashWords(r.tb+shift, r.key, r.bytes, r.cnt))
		}
	}
	if d := refDigest(tap, 2, 2); d != byHand {
		t.Errorf("refDigest %v, by hand %v", d, byHand)
	}
	other := byHand
	other.add(1)
	if byHand.mismatch(byHand) != 0 || byHand.mismatch(other) != 1 {
		t.Error("digest mismatch counts are off")
	}
}

func TestReferenceQuota(t *testing.T) {
	// Depth 3, refilled in full between windows: three of every burst.
	if a, s := refQuota([]uint64{5, 5, 2, 5}, 30, 3); a != 3+3+2+3 || s != 2+2+0+2 {
		t.Errorf("admitted %d shed %d", a, s)
	}
	// A refill slower than the drain: the bucket opens full, then trickles.
	if a, s := refQuota([]uint64{5, 5, 5}, 1, 3); a != 3+1+1 || s != 2+4+4 {
		t.Errorf("admitted %d shed %d", a, s)
	}
}
