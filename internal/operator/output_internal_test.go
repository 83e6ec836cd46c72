package operator

import (
	"fmt"
	"testing"

	"streamop/internal/gsql"
	"streamop/internal/sfunlib"
	"streamop/internal/trace"
	"streamop/internal/tuple"
)

// The output batch is empty whenever Process, ProcessBatch or Flush
// returns — with an error or without, whichever path evaluated the rows —
// so a snapshot taken between two calls has no output to carry and the
// checkpoint format does not know the batch exists.
func TestOutputBatchEmptyAtEveryReturn(t *testing.T) {
	const groups = 700 // a window's sample: one full output batch and a part
	var pkts []trace.Packet
	for w := 0; w < 3; w++ {
		for i := 0; i < groups; i++ {
			pkts = append(pkts, trace.Packet{Time: uint64(w)*1e9 + uint64(i), SrcIP: uint32(1 + i), Proto: 6, Len: uint16(100 + i)})
		}
	}
	for _, c := range []struct {
		name, src string
		sinkFails int // the sink fails on its n-th row; 0 never
		wantErr   bool
	}{
		{"selection_kernels", `SELECT uts, len FROM PKT WHERE len > 300`, 0, false},
		{"selection_scalar", `SELECT uts, ssthreshold() FROM PKT`, 0, false},
		{"selection_sink_fails", `SELECT uts, len FROM PKT`, 900, true},
		{"window", `SELECT tb, srcIP, sum(len) FROM PKT GROUP BY time/1 AS tb, srcIP`, 0, false},
		{"window_select_fails", `SELECT tb, srcIP, 1000 / (srcIP - 601) FROM PKT GROUP BY time/1 AS tb, srcIP`, 0, true},
		{"window_sink_fails", `SELECT tb, srcIP, sum(len) FROM PKT GROUP BY time/1 AS tb, srcIP`, 600, true},
		{"window_estimates", `SELECT tb, srcIP, ESTIMATE sum(len) WITH ERROR AS vol FROM PKT GROUP BY time/1 AS tb, srcIP`, 0, false},
	} {
		for _, batched := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/batched=%v", c.name, batched), func(t *testing.T) {
				q, err := gsql.Parse(c.src)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := gsql.Analyze(q, trace.Schema(), sfunlib.Default(1))
				if err != nil {
					t.Fatal(err)
				}
				rows := 0
				op, err := New(plan, func(tuple.Tuple) error {
					if rows++; rows == c.sinkFails {
						return fmt.Errorf("sink full")
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				check := func(call string, err error) error {
					t.Helper()
					if n := op.out.cols[0].Len(); n != 0 {
						t.Fatalf("%s returned (err %v) with %d rows in the output batch", call, err, n)
					}
					return err
				}
				var runErr error
				if batched {
					b := tuple.NewBatch(trace.Schema(), 0)
					for off := 0; off < len(pkts) && runErr == nil; off += 300 {
						b.Reset()
						trace.AppendBatch(b, pkts[off:min(off+300, len(pkts))])
						runErr = check("ProcessBatch", op.ProcessBatch(b))
					}
				} else {
					buf := make(tuple.Tuple, trace.NumFields)
					for i := 0; i < len(pkts) && runErr == nil; i++ {
						pkts[i].AppendTuple(buf)
						runErr = check("Process", op.Process(buf))
					}
				}
				if runErr == nil {
					runErr = check("Flush", op.Flush())
				}
				if (runErr != nil) != c.wantErr {
					t.Fatalf("err = %v, want an error: %v", runErr, c.wantErr)
				}
				if rows == 0 {
					t.Fatal("nothing was emitted; the test checks nothing")
				}
			})
		}
	}
}
