package operator

import (
	"strings"
	"testing"

	"streamop/internal/checkpoint"
	"streamop/internal/gsql"
	"streamop/internal/sfunlib"
	"streamop/internal/trace"
	"streamop/internal/tuple"
)

// TestRestoreRefusesRepeatedGroups: a snapshot is input from outside the
// program, and one that lists a group, a supergroup or an old supergroup
// twice is refused. Restored, a repeated group would leave twice at the
// next flush.
func TestRestoreRefusesRepeatedGroups(t *testing.T) {
	const src = `SELECT tb, srcIP, count(*) FROM PKT GROUP BY time/1 as tb, srcIP`
	newOp := func() *Operator {
		q, err := gsql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := gsql.Analyze(q, trace.Schema(), sfunlib.Default(1))
		if err != nil {
			t.Fatal(err)
		}
		op, err := New(plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	for _, c := range []struct {
		name   string
		repeat func(o *Operator)
	}{
		{"group", func(o *Operator) {
			sg := o.sgList[0]
			sg.groups = append(sg.groups, sg.groups[0])
		}},
		{"supergroup", func(o *Operator) {
			sg := o.sgList[0]
			o.sgList = append(o.sgList, &supergroup{key: sg.key, states: sg.states, supers: sg.supers})
		}},
		{"old supergroup", func(o *Operator) {
			o.sgOldList = append(o.sgOldList, o.sgOldList[0])
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			op := newOp()
			buf := make(tuple.Tuple, trace.NumFields)
			for i, p := range []trace.Packet{{Time: 0, SrcIP: 1, Len: 40}, {Time: 1e9, SrcIP: 1, Len: 40}} {
				p.AppendTuple(buf)
				if err := op.Process(buf); err != nil {
					t.Fatalf("packet %d: %v", i, err)
				}
			}
			if len(op.sgList) != 1 || len(op.sgList[0].groups) != 1 || len(op.sgOldList) != 1 {
				t.Fatalf("%d supergroups, %d old: want one of each with one group", len(op.sgList), len(op.sgOldList))
			}
			c.repeat(op)
			enc := checkpoint.NewEncoder()
			if err := op.Snapshot(enc); err != nil {
				t.Fatal(err)
			}
			err := newOp().Restore(checkpoint.NewDecoder(enc.Bytes()))
			if err == nil || !strings.Contains(err.Error(), "twice") {
				t.Fatalf("restoring a payload that lists the %s twice: err = %v, want it refused", c.name, err)
			}
		})
	}
}
