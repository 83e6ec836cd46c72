package sfunlib

import (
	"streamop/internal/checkpoint"
	"streamop/internal/sample/priority"
	"streamop/internal/sample/subsetsum"
	"streamop/internal/xrand"
)

// Checkpoint codecs for the library's state blobs. Each family serializes
// every field that influences a future sampling decision — thresholds,
// counters, pending skips, member sets, and the full RNG state — so a
// restored state is bit-for-bit interchangeable with the live one.
// Redundant lookup structures (the reservoir's and priority sampler's tag
// sets) are rebuilt from their authoritative siblings instead of being
// stored twice.

func encodeRng(e *checkpoint.Encoder, r *xrand.Rand) {
	for _, w := range r.State() {
		e.U64(w)
	}
}

func decodeRng(d *checkpoint.Decoder) *xrand.Rand {
	var st [4]uint64
	for i := range st {
		st[i] = d.U64()
	}
	r := xrand.New(0)
	r.SetState(st)
	return r
}

func encodeSS(s *ssState, e *checkpoint.Encoder) {
	e.Bool(s.configured)
	e.I64(int64(s.n))
	e.F64(s.theta)
	e.F64(s.relax)
	e.F64(s.Z)
	e.F64(s.ZPrev)
	e.F64(s.Counter)
	e.F64(s.CleanCounter)
	e.I64(int64(s.Big))
	e.I64(int64(s.Cleanings))
	e.Bool(s.finalArmed)
	e.Bool(s.finalPrepared)
	e.Bool(s.subsampling)
}

func decodeSS(d *checkpoint.Decoder) *ssState {
	return &ssState{
		configured: d.Bool(),
		n:          int(d.I64()),
		theta:      d.F64(),
		relax:      d.F64(),
		Threshold: subsetsum.Threshold{
			Z:            d.F64(),
			ZPrev:        d.F64(),
			Counter:      d.F64(),
			CleanCounter: d.F64(),
			Big:          int(d.I64()),
			Cleanings:    int(d.I64()),
		},
		finalArmed:    d.Bool(),
		finalPrepared: d.Bool(),
		subsampling:   d.Bool(),
	}
}

// A bssample state stores only its admission counter: z arrives with
// every call.
func encodeBSS(s *bssState, e *checkpoint.Encoder) { e.F64(s.Counter) }

func decodeBSS(d *checkpoint.Decoder) *bssState {
	return &bssState{subsetsum.Threshold{Counter: d.F64()}}
}

// The reservoir's leading flag is "configured", which N > 0 also says.
func encodeRS(s *rsState, e *checkpoint.Encoder) {
	e.Bool(s.N > 0)
	e.I64(int64(s.N))
	e.F64(s.tol)
	encodeRng(e, s.Rng)
	e.I64(s.Seen)
	e.I64(s.Skip)
	e.Len(len(s.Items))
	for _, tag := range s.Items {
		e.U64(tag)
	}
}

func decodeRS(d *checkpoint.Decoder) *rsState {
	d.Bool()
	s := &rsState{}
	s.N = int(d.I64())
	s.tol = d.F64()
	s.Rng = decodeRng(d)
	s.Seen = d.I64()
	s.Skip = d.I64()
	n := d.Len()
	if n > 0 || s.N > 0 {
		s.Items = make([]uint64, 0, n)
		s.tags = make(map[uint64]bool, n)
	}
	for i := 0; i < n; i++ {
		tag := d.U64()
		s.Items = append(s.Items, tag)
		s.tags[tag] = true
	}
	return s
}

func encodeHH(s *hhState, e *checkpoint.Encoder) {
	e.I64(s.w)
	e.I64(s.count)
}

func decodeHH(d *checkpoint.Decoder) *hhState { return &hhState{w: d.I64(), count: d.I64()} }

func encodeDS(s *dsState, e *checkpoint.Encoder) {
	e.Bool(s.configured)
	e.I64(int64(s.capacity))
	e.U64(uint64(s.level))
}

func decodeDS(d *checkpoint.Decoder) *dsState {
	return &dsState{configured: d.Bool(), capacity: int(d.I64()), level: uint(d.U64())}
}

// The priority sampler's leading flag is "configured", which K > 0 also
// says. Each member stores its tag and priority, not its weight: the group
// table holds the weight, and no ps* function reads it.
func encodePS(s *psState, e *checkpoint.Encoder) {
	e.Bool(s.K > 0)
	e.I64(int64(s.K))
	encodeRng(e, s.Rng)
	e.F64(s.Tau)
	// The heap's backing array round-trips as-is: container/heap order is
	// a property of the slice, so the restored slice is a valid heap.
	e.Len(len(s.Items))
	for _, m := range s.Items {
		e.U64(m.Payload)
		e.F64(m.Priority)
	}
}

func decodePS(d *checkpoint.Decoder) *psState {
	d.Bool()
	s := &psState{tags: map[uint64]bool{}}
	s.K = int(d.I64())
	s.Rng = decodeRng(d)
	s.Tau = d.F64()
	n := d.Len()
	s.Items = make([]priority.Sample[uint64], 0, n)
	for i := 0; i < n; i++ {
		m := priority.Sample[uint64]{Payload: d.U64(), Priority: d.F64()}
		s.Items = append(s.Items, m)
		s.tags[m.Payload] = true
	}
	return s
}
