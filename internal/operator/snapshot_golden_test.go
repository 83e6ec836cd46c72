package operator_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"streamop/internal/checkpoint"
	"streamop/internal/operator"
	"streamop/internal/sfunlib"
	"streamop/internal/trace"
	"streamop/internal/tuple"
	"streamop/internal/value"
	"streamop/internal/xrand"
)

var updateSnapshotGolden = flag.Bool("update-snapshot-golden", false,
	"rewrite testdata/snapshot_golden.json from this run")

// snapshotRecord is one golden entry: the length and sha256 of the bytes
// Operator.Snapshot wrote.
type snapshotRecord struct {
	Len    int    `json:"len"`
	SHA256 string `json:"sha256"`
}

func recordOf(blob []byte) snapshotRecord {
	sum := sha256.Sum256(blob)
	return snapshotRecord{Len: len(blob), SHA256: hex.EncodeToString(sum[:])}
}

// goldenSchema is the built-in aggregates' case's stream: an ordered
// timestamp, one key of each of the Int, Float and String kinds, a numeric
// argument whose rows are Int or Float, and a String argument.
var goldenSchema = tuple.MustSchema("G",
	tuple.Field{Name: "ts", Kind: value.Uint, Ordering: tuple.Increasing},
	tuple.Field{Name: "ki", Kind: value.Int},
	tuple.Field{Name: "kf", Kind: value.Float},
	tuple.Field{Name: "ks", Kind: value.String},
	tuple.Field{Name: "x"},
	tuple.Field{Name: "s", Kind: value.String},
)

// goldenBatches returns the built-in aggregates' case's input: 6 000 rows
// over 12 windows of ts/4, in batches of 64.
func goldenBatches() []*tuple.Batch {
	r := xrand.New(35)
	words := []string{"", "a", "bb", "ccc", "dddd"}
	var out []*tuple.Batch
	b := tuple.NewBatch(goldenSchema, 64)
	for i := 0; i < 6000; i++ {
		var x value.Value
		switch r.Intn(5) {
		case 0:
			x = value.NewFloat(float64(r.Intn(1000)) / 8)
		case 1:
			x = value.Value{}
		default:
			x = value.NewInt(int64(r.Intn(2000)) - 500)
		}
		b.AppendRow(tuple.Tuple{
			value.NewUint(uint64(i / 125)),
			value.NewInt(int64(r.Intn(7)) - 3),
			value.NewFloat(float64(r.Intn(5)) / 4),
			value.NewString(words[r.Intn(len(words))]),
			x,
			value.NewString(words[r.Intn(len(words))]),
		})
		if b.Len() == 64 {
			out = append(out, b)
			b = tuple.NewBatch(goldenSchema, 64)
		}
	}
	if b.Len() > 0 {
		out = append(out, b)
	}
	return out
}

// packetBatches converts pkts to batches of 256 rows.
func packetBatches(pkts []trace.Packet) []*tuple.Batch {
	var out []*tuple.Batch
	for off := 0; off < len(pkts); off += 256 {
		b := tuple.NewBatch(trace.Schema(), 256)
		trace.AppendBatch(b, pkts[off:min(off+256, len(pkts))])
		out = append(out, b)
	}
	return out
}

// snapshotGoldenCases are the plans whose snapshot bytes the golden pins,
// each with its input and the batch after which the snapshot is taken.
func snapshotGoldenCases(t *testing.T) []struct {
	name    string
	src     string
	schema  *tuple.Schema
	batches []*tuple.Batch
	cut     int
} {
	feed, err := trace.NewSteady(trace.DefaultSteady(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	var steady []trace.Packet
	for p, ok := feed.Next(); ok; p, ok = feed.Next() {
		steady = append(steady, p)
	}
	ledger := packetBatches(steady)
	mhPkts := synthPackets(20000, 20, 60, 100, 5)
	for i := range mhPkts {
		// Vary the lengths so the sum$ contributions differ.
		mhPkts[i].Len = uint16(40 + i*13%1400)
	}
	mh := packetBatches(mhPkts)
	gb := goldenBatches()
	return []struct {
		name    string
		src     string
		schema  *tuple.Schema
		batches []*tuple.Batch
		cut     int
	}{
		// The ledger's subset-sum query, cut 1.8 s in: mid-window, after
		// the window's first cleaning.
		{"ledger_subset_sum", `
SELECT tb, uts, srcIP, destIP, UMAX(sum(len), ssthreshold()) AS adjlen
FROM PKT
WHERE ssample(len, 10000, 2, 10) = TRUE
GROUP BY time/1 AS tb, srcIP, destIP, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`, trace.Schema(), ledger, len(ledger) * 6 / 10},
		// Every built-in aggregate, over Int, Float and String keys, cut
		// mid-window; cleaning evicts the groups of one row, so later
		// groups reuse their slots.
		{"builtin_aggregates", `
SELECT tb, ki, kf, ks, count(*), sum(x), min(x), max(x), avg(x), first(x), last(x), var(x), stddev(x),
       min(s), max(s), first(s), last(s)
FROM G
GROUP BY ts/4 AS tb, ki, kf, ks
CLEANING WHEN count_distinct$(*) >= 120
CLEANING BY count(*) >= 2`, goldenSchema, gb, len(gb)/2 + 3},
		// Min-hash per source: one supergroup per srcIP, kth_smallest_value$
		// and sum$ contributions, cleaning inside each supergroup.
		{"supergroups", `
SELECT tb, srcIP, HX, sum$(len), count(*)
FROM PKT
WHERE HX <= Kth_smallest_value$(HX, 4)
GROUP BY time/5 AS tb, srcIP, H(destIP) AS HX
SUPERGROUP BY tb, srcIP
HAVING HX <= Kth_smallest_value$(HX, 4)
CLEANING WHEN count_distinct$(*) >= 8
CLEANING BY HX <= Kth_smallest_value$(HX, 4)`, trace.Schema(), mh, len(mh)*3/5 + 1},
	}
}

// TestSnapshotGolden pins the bytes Operator.Snapshot writes, for the
// plans of snapshotGoldenCases, against testdata/snapshot_golden.json: a
// snapshot written by one build is what the next build restores (durable
// sessions on disk), so the layout may not drift. Each snapshot is then
// restored into a fresh operator, which must re-encode the same bytes and
// finish the input with the rows and Stats of the uninterrupted run.
func TestSnapshotGolden(t *testing.T) {
	const golden = "testdata/snapshot_golden.json"
	var want map[string]snapshotRecord
	if !*updateSnapshotGolden {
		raw, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]snapshotRecord{}
	for _, tc := range snapshotGoldenCases(t) {
		newOp := func(rows *[]tuple.Tuple) *operator.Operator {
			op, err := operator.New(compilePlan(t, tc.src, tc.schema, sfunlib.Default(1)), func(row tuple.Tuple) error {
				*rows = append(*rows, row.Clone())
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return op
		}
		feed := func(op *operator.Operator, batches []*tuple.Batch) {
			for _, b := range batches {
				if err := op.ProcessBatch(b); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
			}
		}
		var ref, resumed []tuple.Tuple
		opRef := newOp(&ref)
		feed(opRef, tc.batches)
		if err := opRef.Flush(); err != nil {
			t.Fatal(err)
		}

		opA := newOp(&resumed)
		feed(opA, tc.batches[:tc.cut])
		if st := opA.Stats(); st.Cleanings == 0 || st.GroupsEvicted == 0 || st.Windows == 0 {
			t.Fatalf("%s: %+v at the cut: want a flushed window and an eviction before it", tc.name, st)
		}
		enc := checkpoint.NewEncoder()
		if err := opA.Snapshot(enc); err != nil {
			t.Fatal(err)
		}
		blob := enc.Bytes()
		got[tc.name] = recordOf(blob)

		opB := newOp(&resumed)
		if err := opB.Restore(checkpoint.NewDecoder(blob)); err != nil {
			t.Fatalf("%s: Restore: %v", tc.name, err)
		}
		again := checkpoint.NewEncoder()
		if err := opB.Snapshot(again); err != nil {
			t.Fatal(err)
		}
		if recordOf(again.Bytes()) != got[tc.name] {
			t.Fatalf("%s: the restored operator re-encodes differently", tc.name)
		}
		feed(opB, tc.batches[tc.cut:])
		if err := opB.Flush(); err != nil {
			t.Fatal(err)
		}
		if i, ok := rowsEqual(ref, resumed); !ok {
			t.Fatalf("%s: resumed rows diverge at row %d (%d vs %d rows)", tc.name, i, len(resumed), len(ref))
		}
		if opB.Stats() != opRef.Stats() {
			t.Fatalf("%s: resumed Stats %+v, uninterrupted %+v", tc.name, opB.Stats(), opRef.Stats())
		}
		if !*updateSnapshotGolden && got[tc.name] != want[tc.name] {
			t.Errorf("%s: snapshot %+v, golden %+v", tc.name, got[tc.name], want[tc.name])
		}
	}
	if *updateSnapshotGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
