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

// groupBytes reports the bytes the open window's groups occupy: the
// group store's columns plus the group table.
func (o *Operator) groupBytes() int64 { return o.store.bytes() + o.groups.bytes() }
