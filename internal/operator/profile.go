package operator

import (
	"streamop/internal/profile"
)

// Profiling instrumentation (see internal/profile): consecutive clock
// reads between ProcessBatch's phases (batch.go), Process's batches of one
// included, and one reading around each cleaning sweep and each window
// flush, which happen inside the walk and are taken out of its share
// through nestedNS.

// SetProfile attaches a node profile (nil detaches). When detached each
// clock site pays one nil check per batch, sweep or window.
func (o *Operator) SetProfile(np *profile.NodeProfile) { o.prof = np }

// approxGroupBytes estimates the heap bytes pinned by n resident groups:
// the group struct and chain slot plus its key/values, aggregate states
// and contribution slots. A static per-group model — the profiler wants
// magnitude, not accounting.
func (o *Operator) approxGroupBytes(n int) int64 {
	per := int64(96)
	per += int64(len(o.plan.GroupBy)) * 48
	per += int64(len(o.plan.Aggs)) * 64
	per += int64(len(o.plan.Supers)) * 24
	return int64(n) * per
}
