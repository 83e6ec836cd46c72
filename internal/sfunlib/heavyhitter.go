package sfunlib

import (
	"fmt"

	"streamop/internal/sfun"
	"streamop/internal/value"
)

// HeavyHitterStateName is the STATE shared by the heavy-hitter helpers.
const HeavyHitterStateName = "heavyhitter_state"

// hhState implements the Manku-Motwani bookkeeping the operator query
// needs: the stream position and bucket width. Frequencies live in the
// group table (count(*)); the creation bucket is captured per group with
// first(current_bucket()).
type hhState struct {
	w     int64 // bucket width (1/epsilon), set by local_count's constant
	count int64 // tuples seen this window
}

// Gauges implements sfun.Observable: the lossy-counting bucket index and
// the stream position it derives from.
func (s *hhState) Gauges(emit func(string, float64)) {
	emit("tuples_seen", float64(s.count))
	emit("current_bucket", float64(s.bucket()))
}

// bucket is ceil(count/w), the 1-based id of the current lossy-counting
// bucket; 1 before local_count set the width.
func (s *hhState) bucket() int64 {
	if s.w <= 0 {
		return 1
	}
	return max(1, (s.count+s.w-1)/s.w)
}

func registerHeavyHitter(reg *sfun.Registry, _ uint64) error {
	// Lossy counting restarts each window; only the bucket width is
	// carried so current_bucket works from the first tuple.
	init := func(o *hhState) *hhState {
		if o == nil {
			return &hhState{}
		}
		return &hhState{w: o.w}
	}
	return family(reg, sfun.StateType{Name: HeavyHitterStateName}, init, encodeHH, decodeHH, []fn[hhState]{
		{
			// local_count(w) counts tuples and returns TRUE once every w
			// calls: the bucket-boundary cleaning trigger.
			name: "local_count",
			call: func(s *hhState, args []value.Value) (value.Value, error) {
				w, err := intArg("local_count", args, 0)
				if err != nil {
					return value.Value{}, err
				}
				if w < 1 {
					return value.Value{}, fmt.Errorf("local_count: width must be >= 1, got %d", w)
				}
				s.w = w
				s.count++
				return value.NewBool(s.count%w == 0), nil
			},
		},
		{
			// current_bucket returns ceil(N/w), the 1-based id of the
			// current lossy-counting bucket.
			name: "current_bucket",
			call: func(s *hhState, _ []value.Value) (value.Value, error) {
				return value.NewInt(s.bucket()), nil
			},
		},
	})
}
