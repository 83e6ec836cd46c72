package operator

import (
	"fmt"

	"streamop/internal/agg"
	"streamop/internal/checkpoint"
	"streamop/internal/tuple"
)

// Snapshot / Restore serialize the operator's complete execution state at
// a tuple boundary: activity counters, the open window's ordered values,
// the group table, both supergroup tables (new with aggregates and groups,
// old with the SFUN states the next handoff may read), and every SFUN
// state blob via the registry's Encode/Decode hooks. A restored operator
// fed the remaining input emits exactly the rows the original would have
// emitted — the engine's kill-and-resume property test holds this to
// byte-identical output.
//
// Not serialized: provenance traces (transient per-tuple metadata) and
// telemetry plumbing (the restored process attaches its own collector).
// Plans using user-defined aggregates are rejected: a UDAF accumulator is
// arbitrary user state with no codec.

// Snapshot writes the operator's state. The operator must be at a tuple
// boundary (no Process call in flight).
func (o *Operator) Snapshot(e *checkpoint.Encoder) error {
	encodeStats(e, o.stats)
	e.I64(o.windowIdx)
	encodeStats(e, o.winBase)
	o.front.SnapshotWindow(e)

	// Registry-level shared context (per-state-type instance counters).
	e.Len(len(o.plan.States))
	for _, sd := range o.plan.States {
		if sd.Type.EncodeShared == nil {
			e.Bool(false)
			continue
		}
		e.Bool(true)
		sd.Type.EncodeShared(e)
	}

	if o.plan.IsSelection {
		e.Len(len(o.selStates))
		for i, st := range o.selStates {
			if err := o.encodeState(e, i, st); err != nil {
				return err
			}
		}
		return nil
	}

	// New supergroup table in insertion order, with its groups.
	e.Len(len(o.sgList))
	for _, sg := range o.sgList {
		e.Values(sg.key.Values())
		for i, st := range sg.states {
			if err := o.encodeState(e, i, st); err != nil {
				return err
			}
		}
		for i, s := range sg.supers {
			if err := agg.EncodeSuper(e, s); err != nil {
				return fmt.Errorf("operator: snapshot of %s: %w", o.plan.Supers[i].Display, err)
			}
		}
		e.Len(len(sg.groups))
		for _, g := range sg.groups {
			e.Values(o.store.keyVals(g, o.keyVals))
			for i, a := range o.store.aggs {
				if err := a.Encode(e, g); err != nil {
					return fmt.Errorf("operator: snapshot of %s: %w", o.plan.Aggs[i].Display, err)
				}
			}
			e.Len(len(o.store.contribs))
			for i := range o.store.contribs {
				e.Value(o.store.contribs[i].Value(int(g)))
			}
		}
	}

	// Old supergroup table in the previous window's insertion order: keys
	// and states only — rotation dropped the groups, and handoff reads
	// nothing else.
	e.Len(len(o.sgOldList))
	for _, sg := range o.sgOldList {
		e.Values(sg.key.Values())
		for i, st := range sg.states {
			if err := o.encodeState(e, i, st); err != nil {
				return err
			}
		}
	}

	// Estimator history (empty for non-estimating plans): keeps the
	// /debug/accuracy series and estimator gauges identical across a
	// kill-and-resume.
	o.snapshotEstimates(e)
	return nil
}

func (o *Operator) encodeState(e *checkpoint.Encoder, i int, st any) error {
	sd := &o.plan.States[i]
	if sd.Type.Encode == nil {
		return fmt.Errorf("operator: state %q has no checkpoint Encode hook", sd.Type.Name)
	}
	if err := sd.Type.Encode(st, e); err != nil {
		return fmt.Errorf("operator: snapshot of state %q: %w", sd.Type.Name, err)
	}
	return nil
}

func (o *Operator) decodeState(d *checkpoint.Decoder, i int) (any, error) {
	sd := &o.plan.States[i]
	if sd.Type.Decode == nil {
		return nil, fmt.Errorf("operator: state %q has no checkpoint Decode hook", sd.Type.Name)
	}
	st, err := sd.Type.Decode(d)
	if err != nil {
		return nil, fmt.Errorf("operator: restore of state %q: %w", sd.Type.Name, err)
	}
	return st, nil
}

// Restore loads a snapshot produced by Snapshot into a freshly created
// operator for the same plan, replacing its empty state.
func (o *Operator) Restore(d *checkpoint.Decoder) error {
	o.stats = decodeStats(d)
	o.windowIdx = d.I64()
	o.winBase = decodeStats(d)
	o.front.RestoreWindow(d)

	if n := d.Len(); d.Err() == nil && n != len(o.plan.States) {
		return fmt.Errorf("operator: snapshot has %d state types, plan has %d", n, len(o.plan.States))
	}
	for i := range o.plan.States {
		hasShared := d.Bool()
		if d.Err() != nil {
			return d.Err()
		}
		sd := &o.plan.States[i]
		if !hasShared {
			if sd.Type.DecodeShared != nil {
				return fmt.Errorf("operator: snapshot lacks shared context for state %q", sd.Type.Name)
			}
			continue
		}
		if sd.Type.DecodeShared == nil {
			return fmt.Errorf("operator: snapshot has shared context for state %q, which declares none", sd.Type.Name)
		}
		if err := sd.Type.DecodeShared(d); err != nil {
			return fmt.Errorf("operator: restore of state %q shared context: %w", sd.Type.Name, err)
		}
	}

	if o.plan.IsSelection {
		n := d.Len()
		if d.Err() == nil && n != len(o.plan.States) {
			return fmt.Errorf("operator: snapshot has %d selection states, plan has %d", n, len(o.plan.States))
		}
		for i := 0; i < n && d.Err() == nil; i++ {
			st, err := o.decodeState(d, i)
			if err != nil {
				return err
			}
			o.selStates[i] = st
		}
		return d.Err()
	}

	o.groups.clear()
	// A fresh store: no group from before the restore can reach its tables.
	o.store = newGroupStore(o.plan)
	o.slot.Cols = o.store.aggs
	clear(o.traces)
	o.sgNew = make(map[uint64][]*supergroup)
	o.sgOld = make(map[uint64][]*supergroup)
	o.sgList, o.sgOldList = o.sgList[:0], o.sgOldList[:0]
	o.vec.curSG = nil // restored supergroups invalidate the batch cache

	nSG := d.Len()
	for i := 0; i < nSG && d.Err() == nil; i++ {
		sg, err := o.decodeSupergroup(d, true)
		if err != nil {
			return err
		}
		o.sgNew[sg.key.Hash()] = append(o.sgNew[sg.key.Hash()], sg)
		o.sgList = append(o.sgList, sg)
	}
	nOld := d.Len()
	for i := 0; i < nOld && d.Err() == nil; i++ {
		sg, err := o.decodeSupergroup(d, false)
		if err != nil {
			return err
		}
		o.sgOld[sg.key.Hash()] = append(o.sgOld[sg.key.Hash()], sg)
		o.sgOldList = append(o.sgOldList, sg)
	}
	if d.Err() != nil {
		return d.Err()
	}
	return o.restoreEstimates(d)
}

func (o *Operator) decodeSupergroup(d *checkpoint.Decoder, full bool) (*supergroup, error) {
	sg := &supergroup{key: tuple.MakeKey(d.Values())}
	sg.states = make([]any, len(o.plan.States))
	for i := range o.plan.States {
		st, err := o.decodeState(d, i)
		if err != nil {
			return nil, err
		}
		sg.states[i] = st
	}
	if !full {
		return sg, d.Err()
	}
	sg.supers = make([]agg.Super, len(o.plan.Supers))
	for i := range o.plan.Supers {
		s, err := agg.DecodeSuper(d)
		if err != nil {
			return nil, fmt.Errorf("operator: restore of %s: %w", o.plan.Supers[i].Display, err)
		}
		sg.supers[i] = s
	}
	nG := d.Len()
	for j := 0; j < nG && d.Err() == nil; j++ {
		vals := d.Values()
		if d.Err() != nil {
			break
		}
		if len(vals) != len(o.plan.GroupBy) {
			return nil, fmt.Errorf("operator: group key has %d values, plan groups by %d", len(vals), len(o.plan.GroupBy))
		}
		g := o.addGroup(sg, tuple.HashValues(vals))
		o.store.setKeyVals(g, vals)
		for i, a := range o.store.aggs {
			if err := a.Decode(d, g); err != nil {
				return nil, fmt.Errorf("operator: restore of %s: %w", o.plan.Aggs[i].Display, err)
			}
		}
		contribs := d.Values()
		if d.Err() == nil && contribs != nil && len(contribs) != len(o.plan.Supers) {
			return nil, fmt.Errorf("operator: group has %d contributions, plan has %d superaggregates",
				len(contribs), len(o.plan.Supers))
		}
		for i, v := range contribs {
			o.store.contribs[i].SetValue(int(g), v)
		}
	}
	return sg, d.Err()
}

func encodeStats(e *checkpoint.Encoder, s Stats) {
	e.I64(s.TuplesIn)
	e.I64(s.TuplesAccepted)
	e.I64(s.GroupsCreated)
	e.I64(s.GroupsEvicted)
	e.I64(s.Cleanings)
	e.I64(s.Windows)
	e.I64(s.TuplesOut)
}

func decodeStats(d *checkpoint.Decoder) Stats {
	return Stats{
		TuplesIn:       d.I64(),
		TuplesAccepted: d.I64(),
		GroupsCreated:  d.I64(),
		GroupsEvicted:  d.I64(),
		Cleanings:      d.I64(),
		Windows:        d.I64(),
		TuplesOut:      d.I64(),
	}
}
