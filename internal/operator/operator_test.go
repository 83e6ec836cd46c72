package operator_test

import (
	"math"
	"sort"
	"testing"

	"streamop/internal/engine"
	"streamop/internal/gsql"
	"streamop/internal/operator"
	"streamop/internal/sample/heavyhitter"
	"streamop/internal/sample/quantile"
	"streamop/internal/sfunlib"
	"streamop/internal/trace"
	"streamop/internal/tuple"
	"streamop/internal/value"
	"streamop/internal/xrand"
)

// run compiles src against the PKT schema and processes every packet,
// returning the emitted rows.
func run(t *testing.T, src string, packets []trace.Packet) []tuple.Tuple {
	t.Helper()
	q, err := gsql.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	plan, err := gsql.Analyze(q, trace.Schema(), sfunlib.Default(1))
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	var out []tuple.Tuple
	op, err := operator.New(plan, func(row tuple.Tuple) error {
		out = append(out, row.Clone())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := make(tuple.Tuple, trace.NumFields)
	for _, p := range packets {
		p.AppendTuple(buf)
		if err := op.Process(buf.Clone()); err != nil {
			t.Fatalf("Process: %v", err)
		}
	}
	if err := op.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return out
}

// synthPackets builds count packets spread uniformly over seconds, with
// the given source pool and fixed length.
func synthPackets(count int, seconds uint64, srcs int, length uint16, seed uint64) []trace.Packet {
	r := xrand.New(seed)
	out := make([]trace.Packet, count)
	for i := range out {
		ts := uint64(i) * seconds * 1e9 / uint64(count)
		out[i] = trace.Packet{
			Time:  ts,
			SrcIP: 0x0a000000 + uint32(r.Intn(srcs)),
			DstIP: 0xac100000 + uint32(r.Intn(srcs)),
			Proto: 6,
			Len:   length,
		}
	}
	return out
}

func TestPlainAggregation(t *testing.T) {
	// 2 windows of 10 seconds; per-src sums must be exact.
	pkts := synthPackets(2000, 20, 4, 100, 1)
	rows := run(t, `
SELECT tb, srcIP, sum(len), count(*)
FROM PKT
GROUP BY time/10 as tb, srcIP`, pkts)
	if len(rows) != 8 { // 2 windows x 4 sources
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	var totalLen, totalCount int64
	for _, r := range rows {
		totalLen += r[2].AsInt()
		totalCount += r[3].AsInt()
	}
	if totalCount != 2000 || totalLen != 200000 {
		t.Errorf("totals: count %d, len %d", totalCount, totalLen)
	}
}

func TestWindowBoundaries(t *testing.T) {
	pkts := []trace.Packet{
		{Time: 1e9, Len: 10},
		{Time: 2e9, Len: 20},
		{Time: 11e9, Len: 30}, // new window (time/10 changes 0 -> 1)
	}
	rows := run(t, `SELECT tb, sum(len) FROM PKT GROUP BY time/10 as tb`, pkts)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[0][1].AsInt() != 30 || rows[1][1].AsInt() != 30 {
		t.Errorf("window sums = %v, %v", rows[0][1], rows[1][1])
	}
	if rows[0][0].AsInt() != 0 || rows[1][0].AsInt() != 1 {
		t.Errorf("window ids = %v, %v", rows[0][0], rows[1][0])
	}
}

func TestHavingFiltersGroups(t *testing.T) {
	pkts := []trace.Packet{
		{Time: 1e9, SrcIP: 1, Len: 10},
		{Time: 1e9, SrcIP: 1, Len: 10},
		{Time: 2e9, SrcIP: 2, Len: 10},
	}
	rows := run(t, `
SELECT srcIP, count(*)
FROM PKT
GROUP BY time/10 as tb, srcIP
HAVING count(*) >= 2`, pkts)
	if len(rows) != 1 || rows[0][0].Uint() != 1 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestSelectionQueryMode(t *testing.T) {
	pkts := []trace.Packet{
		{Time: 1, Len: 100},
		{Time: 2, Len: 2000},
		{Time: 3, Len: 50},
	}
	rows := run(t, `SELECT uts, len FROM PKT WHERE len >= 100`, pkts)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][1].Int() != 100 || rows[1][1].Int() != 2000 {
		t.Errorf("rows = %v", rows)
	}
}

const subsetSumQuery = `
SELECT uts, srcIP, destIP, UMAX(sum(len), ssthreshold()) AS adjlen
FROM PKT
WHERE ssample(len, 100, 2, 10) = TRUE
GROUP BY time/20 as tb, srcIP, destIP, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`

func TestSubsetSumQueryEndToEnd(t *testing.T) {
	// One 20-second window of 30,000 fixed-length packets: the sample
	// must hold <= 100 rows whose adjusted lengths sum to ~ the actual
	// total bytes.
	pkts := synthPackets(30000, 19, 50, 500, 2)
	rows := run(t, subsetSumQuery, pkts)
	if len(rows) == 0 || len(rows) > 100 {
		t.Fatalf("sample size = %d, want (0, 100]", len(rows))
	}
	var est float64
	for _, r := range rows {
		est += r[3].AsFloat()
	}
	actual := 30000.0 * 500
	if rel := math.Abs(est-actual) / actual; rel > 0.15 {
		t.Errorf("estimate %v vs actual %v (rel err %v)", est, actual, rel)
	}
}

func TestSubsetSumMultiWindowCarry(t *testing.T) {
	// Two equal-load windows: the second window inherits a calibrated
	// threshold (relaxed by f=10) and must also land near N samples with
	// an accurate estimate.
	pkts := synthPackets(30000, 19, 50, 500, 3)
	second := synthPackets(30000, 19, 50, 500, 4)
	for i := range second {
		second[i].Time += 20e9
	}
	pkts = append(pkts, second...)
	rows := run(t, subsetSumQuery, pkts)

	perWindow := map[int64]float64{}
	counts := map[int64]int{}
	for _, r := range rows {
		w := int64(r[0].Uint() / 20e9)
		perWindow[w] += r[3].AsFloat()
		counts[w]++
	}
	if len(perWindow) != 2 {
		t.Fatalf("windows = %d, want 2 (got %v)", len(perWindow), counts)
	}
	for w, est := range perWindow {
		if counts[w] > 100 {
			t.Errorf("window %d sample = %d > N", w, counts[w])
		}
		actual := 30000.0 * 500
		if rel := math.Abs(est-actual) / actual; rel > 0.15 {
			t.Errorf("window %d estimate %v vs %v (rel err %v)", w, est, actual, rel)
		}
	}
}

func TestMinHashQueryEndToEnd(t *testing.T) {
	// Per source, the output must be exactly the k smallest distinct
	// H(destIP) values — verified against a brute-force computation.
	const k = 16
	r := xrand.New(5)
	var pkts []trace.Packet
	for i := 0; i < 20000; i++ {
		pkts = append(pkts, trace.Packet{
			Time:  uint64(i) * 1e6,
			SrcIP: uint32(1 + r.Intn(3)),
			DstIP: uint32(r.Intn(500)),
			Len:   100,
		})
	}
	rows := run(t, `
SELECT tb, srcIP, HX
FROM PKT
WHERE HX <= Kth_smallest_value$(HX, 16)
GROUP BY time/60 as tb, srcIP, H(destIP) as HX
SUPERGROUP BY tb, srcIP
HAVING HX <= Kth_smallest_value$(HX, 16)
CLEANING WHEN count_distinct$(*) >= 16
CLEANING BY HX <= Kth_smallest_value$(HX, 16)`, pkts)

	// Brute force per srcIP.
	want := map[uint32]map[uint64]bool{}
	for src := uint32(1); src <= 3; src++ {
		hashes := map[uint64]bool{}
		for _, p := range pkts {
			if p.SrcIP == src {
				hashes[value.Hash(value.NewUint(uint64(p.DstIP)), 0x5eed)] = true
			}
		}
		var all []uint64
		for h := range hashes {
			all = append(all, h)
		}
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				if all[j] < all[i] {
					all[i], all[j] = all[j], all[i]
				}
			}
		}
		m := map[uint64]bool{}
		for i := 0; i < k && i < len(all); i++ {
			m[all[i]] = true
		}
		want[src] = m
	}
	got := map[uint32]map[uint64]bool{}
	for _, row := range rows {
		src := uint32(row[1].Uint())
		if got[src] == nil {
			got[src] = map[uint64]bool{}
		}
		got[src][row[2].Uint()] = true
	}
	for src, wm := range want {
		gm := got[src]
		if len(gm) != len(wm) {
			t.Errorf("src %d: got %d hashes, want %d", src, len(gm), len(wm))
			continue
		}
		for h := range wm {
			if !gm[h] {
				t.Errorf("src %d: missing hash %d", src, h)
			}
		}
	}
}

func TestHeavyHitterQueryEndToEnd(t *testing.T) {
	// One source sends 30% of packets; the long tail is uniform. The
	// heavy source must survive the lossy-counting cleaning with a large
	// count; random tail sources must be pruned.
	r := xrand.New(6)
	var pkts []trace.Packet
	const n = 50000
	for i := 0; i < n; i++ {
		src := uint32(1)
		if r.Float64() >= 0.3 {
			src = uint32(100 + r.Intn(20000))
		}
		pkts = append(pkts, trace.Packet{Time: uint64(i) * 1e6, SrcIP: src, Len: 100})
	}
	rows := run(t, `
SELECT tb, srcIP, sum(len), count(*)
FROM PKT
GROUP BY time/60 as tb, srcIP
HAVING count(*) >= 100
CLEANING WHEN local_count(1000) = TRUE
CLEANING BY count(*) >= current_bucket() - first(current_bucket())`, pkts)

	foundHeavy := false
	for _, row := range rows {
		if row[1].Uint() == 1 {
			foundHeavy = true
			c := row[3].AsInt()
			if float64(c) < 0.25*n {
				t.Errorf("heavy source count = %d, want >= %v", c, 0.25*n)
			}
		}
	}
	if !foundHeavy {
		t.Error("heavy source missing from output")
	}
	if len(rows) > 50 {
		t.Errorf("output has %d rows; pruning ineffective", len(rows))
	}
}

func TestReservoirQueryEndToEnd(t *testing.T) {
	// 100 samples per window over distinct packets: output must be
	// exactly 100 rows per window, drawn from across the stream.
	pkts := synthPackets(20000, 50, 1000, 100, 7)
	rows := run(t, `
SELECT tb, srcIP, destIP
FROM PKT
WHERE rsample(uts, 100, 5) = TRUE
GROUP BY time/60 as tb, srcIP, destIP, uts
HAVING rsfinal_clean(uts) = TRUE
CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE
CLEANING BY rsclean_with(uts) = TRUE`, pkts)
	if len(rows) != 100 {
		t.Fatalf("sample size = %d, want 100", len(rows))
	}
}

func TestReservoirUniformCoverage(t *testing.T) {
	// Aggregate many runs: every third of the stream should be
	// represented roughly equally.
	q, _ := gsql.Parse(`
SELECT tb, uts
FROM PKT
WHERE rsample(uts, 30, 5) = TRUE
GROUP BY time/600 as tb, uts
HAVING rsfinal_clean(uts) = TRUE
CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE
CLEANING BY rsclean_with(uts) = TRUE`)
	thirds := [3]int{}
	const streamLen = 3000
	for trial := 0; trial < 60; trial++ {
		plan, err := gsql.Analyze(q, trace.Schema(), sfunlib.Default(uint64(trial)*31+7))
		if err != nil {
			t.Fatal(err)
		}
		var rows []tuple.Tuple
		op, _ := operator.New(plan, func(r tuple.Tuple) error { rows = append(rows, r.Clone()); return nil })
		buf := make(tuple.Tuple, trace.NumFields)
		for i := 0; i < streamLen; i++ {
			p := trace.Packet{Time: uint64(i) * 1e8, Len: 100}
			p.AppendTuple(buf)
			if err := op.Process(buf.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		op.Flush()
		for _, r := range rows {
			pos := int(r[1].Uint() / 1e8)
			thirds[pos*3/streamLen]++
		}
	}
	total := thirds[0] + thirds[1] + thirds[2]
	for i, c := range thirds {
		frac := float64(c) / float64(total)
		if math.Abs(frac-1.0/3) > 0.08 {
			t.Errorf("third %d got fraction %v of samples (counts %v)", i, frac, thirds)
		}
	}
}

func TestOperatorStats(t *testing.T) {
	q, _ := gsql.Parse(`SELECT tb, count(*) FROM PKT WHERE len > 0 GROUP BY time/10 as tb`)
	plan, _ := gsql.Analyze(q, trace.Schema(), sfunlib.Default(1))
	op, _ := operator.New(plan, nil)
	buf := make(tuple.Tuple, trace.NumFields)
	for _, p := range synthPackets(100, 20, 2, 50, 8) {
		p.AppendTuple(buf)
		if err := op.Process(buf.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	op.Flush()
	s := op.Stats()
	if s.TuplesIn != 100 || s.TuplesAccepted != 100 {
		t.Errorf("stats in/accepted = %d/%d", s.TuplesIn, s.TuplesAccepted)
	}
	if s.Windows != 2 {
		t.Errorf("windows = %d", s.Windows)
	}
	if s.TuplesOut != 2 {
		t.Errorf("out = %d", s.TuplesOut)
	}
}

func TestProcessRejectsBadArity(t *testing.T) {
	q, _ := gsql.Parse(`SELECT tb FROM PKT GROUP BY time as tb`)
	plan, _ := gsql.Analyze(q, trace.Schema(), sfunlib.Default(1))
	op, _ := operator.New(plan, nil)
	if err := op.Process(tuple.Tuple{value.NewInt(1)}); err == nil {
		t.Error("short tuple accepted")
	}
}

func TestRuntimeErrorPropagates(t *testing.T) {
	q, _ := gsql.Parse(`SELECT tb FROM PKT WHERE len/(len-len) = 1 GROUP BY time as tb`)
	plan, err := gsql.Analyze(q, trace.Schema(), sfunlib.Default(1))
	if err != nil {
		t.Fatal(err)
	}
	op, _ := operator.New(plan, nil)
	p := trace.Packet{Time: 1e9, Len: 10}
	if err := op.Process(p.Tuple()); err == nil {
		t.Error("division by zero did not propagate")
	}
}

func TestSupergroupIsolation(t *testing.T) {
	// Min-hash with SUPERGROUP srcIP: cleaning in one supergroup must not
	// evict groups of another. Use tiny k to force cleanings.
	r := xrand.New(9)
	var pkts []trace.Packet
	for i := 0; i < 5000; i++ {
		pkts = append(pkts, trace.Packet{
			Time:  uint64(i) * 1e6,
			SrcIP: uint32(1 + i%2),
			DstIP: uint32(r.Intn(1000)),
			Len:   1,
		})
	}
	rows := run(t, `
SELECT tb, srcIP, HX
FROM PKT
WHERE HX <= Kth_smallest_value$(HX, 4)
GROUP BY time/60 as tb, srcIP, H(destIP) as HX
SUPERGROUP BY tb, srcIP
HAVING HX <= Kth_smallest_value$(HX, 4)
CLEANING WHEN count_distinct$(*) >= 4
CLEANING BY HX <= Kth_smallest_value$(HX, 4)`, pkts)
	perSrc := map[uint64]int{}
	for _, row := range rows {
		perSrc[row[1].Uint()]++
	}
	if perSrc[1] != 4 || perSrc[2] != 4 {
		t.Errorf("per-source sample sizes = %v, want 4 each", perSrc)
	}
}

// BenchmarkOperatorAggregation times gsqd's aggregating tap, a plain
// GROUP BY with a sum and a count, through ProcessBatch in batches of 512
// rows over a trace.DefaultSteady lap materialised up front, each window's
// flush included: the walk's runs, the aggregates' scatter and the
// gathered SELECT list. It reports ns/pkt and the groups a window holds.
func BenchmarkOperatorAggregation(b *testing.B) {
	const (
		lapSec = 5
		src    = `SELECT tb, srcIP, destIP, sum(len) AS bytes, count(*) AS cnt FROM PKT GROUP BY time/1 AS tb, srcIP, destIP`
	)
	q, err := gsql.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := gsql.Analyze(q, trace.Schema(), sfunlib.Default(1))
	if err != nil {
		b.Fatal(err)
	}
	feed, err := trace.NewSteady(trace.DefaultSteady(1, lapSec))
	if err != nil {
		b.Fatal(err)
	}
	var pkts []trace.Packet
	for p, ok := feed.Next(); ok; p, ok = feed.Next() {
		pkts = append(pkts, p)
	}
	var batches []*tuple.Batch
	for off := 0; off < len(pkts); off += tuple.DefaultBatchRows {
		bt := tuple.NewBatch(trace.Schema(), tuple.DefaultBatchRows)
		trace.AppendBatch(bt, pkts[off:min(off+tuple.DefaultBatchRows, len(pkts))])
		batches = append(batches, bt)
	}
	var st operator.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		op, err := operator.New(plan, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, bt := range batches {
			if err := op.ProcessBatch(bt); err != nil {
				b.Fatal(err)
			}
		}
		if err := op.Flush(); err != nil {
			b.Fatal(err)
		}
		st = op.Stats()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pkts)), "ns/pkt")
	b.ReportMetric(float64(st.GroupsCreated)/float64(st.Windows), "groups/window")
}

func BenchmarkOperatorSubsetSum(b *testing.B) {
	q, _ := gsql.Parse(subsetSumQuery)
	plan, _ := gsql.Analyze(q, trace.Schema(), sfunlib.Default(1))
	op, _ := operator.New(plan, nil)
	r := xrand.New(1)
	tuples := make([]tuple.Tuple, 1024)
	for i := range tuples {
		p := trace.Packet{Time: uint64(i), SrcIP: uint32(r.Intn(100)), Len: uint16(40 + r.Intn(1460))}
		tuples[i] = p.Tuple()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := tuples[i&1023].Clone()
		tp[trace.FieldTime] = value.NewUint(uint64(i) / 2000000 * 20)
		tp[trace.FieldUTS] = value.NewUint(uint64(i))
		op.Process(tp)
	}
}

func TestDistinctSamplingQueryEndToEnd(t *testing.T) {
	// Gibbons' distinct sampling through the operator: a uniform sample
	// over distinct destinations; count_distinct$(*) * dsscale()
	// estimates the number of distinct destinations.
	r := xrand.New(21)
	const trueDistinct = 20000
	var pkts []trace.Packet
	z := xrand.NewZipf(r, 1.1, trueDistinct)
	for i := 0; i < 120000; i++ {
		pkts = append(pkts, trace.Packet{
			Time:  uint64(i) * 1e5,
			DstIP: uint32(z.Uint64()),
			Len:   100,
		})
	}
	// Guarantee every destination appears at least once so the true
	// distinct count is exact.
	for d := 0; d < trueDistinct; d++ {
		pkts = append(pkts, trace.Packet{Time: 12e9 + uint64(d)*1e4, DstIP: uint32(d), Len: 100})
	}
	rows := run(t, `
SELECT tb, HX, count(*), dsscale()
FROM PKT
WHERE dsample(HX, 512) = TRUE
GROUP BY time/60 as tb, H(destIP) as HX
CLEANING WHEN dsdo_clean(count_distinct$(*)) = TRUE
CLEANING BY dskeep(HX) = TRUE`, pkts)
	if len(rows) == 0 || len(rows) > 512 {
		t.Fatalf("sample size = %d", len(rows))
	}
	scale := rows[0][3].AsFloat()
	est := float64(len(rows)) * scale
	if math.Abs(est-trueDistinct)/trueDistinct > 0.25 {
		t.Errorf("distinct estimate %v (sample %d x scale %v), want ~%d",
			est, len(rows), scale, trueDistinct)
	}
	// All retained hashes must qualify at the final level.
	for _, row := range rows {
		h := row[1].Uint()
		if h&(uint64(scale)-1) != 0 {
			t.Fatalf("retained hash %x does not qualify at scale %v", h, scale)
		}
	}
}

func TestQuantileUDAFInQuery(t *testing.T) {
	// The paper's §8 integration: the Greenwald-Khanna holistic summary
	// as a UDAF inside a grouping query.
	reg := sfunlib.Default(1)
	if err := quantile.RegisterUDAF(reg); err != nil {
		t.Fatal(err)
	}
	q, err := gsql.Parse(`
SELECT tb, srcIP, quantile(len, 0.5, 0.01), count(*)
FROM PKT
GROUP BY time/60 as tb, srcIP`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gsql.Analyze(q, trace.Schema(), reg)
	if err != nil {
		t.Fatal(err)
	}
	var rows []tuple.Tuple
	op, _ := operator.New(plan, func(r tuple.Tuple) error { rows = append(rows, r.Clone()); return nil })
	r := xrand.New(31)
	lens := map[uint32][]int{}
	for i := 0; i < 60000; i++ {
		src := uint32(1 + r.Intn(3))
		l := 40 + r.Intn(1460)
		lens[src] = append(lens[src], l)
		p := trace.Packet{Time: uint64(i) * 1e5, SrcIP: src, Len: uint16(l)}
		if err := op.Process(p.Tuple()); err != nil {
			t.Fatal(err)
		}
	}
	if err := op.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		src := uint32(row[1].Uint())
		got := row[2].AsFloat()
		all := lens[src]
		sort.Ints(all)
		trueMedian := float64(all[len(all)/2])
		if math.Abs(got-trueMedian) > 0.02*1500+30 {
			t.Errorf("src %d: median %v, want ~%v", src, got, trueMedian)
		}
	}
}

func TestCascadedSamplingAcrossLevels(t *testing.T) {
	// The conclusion's ongoing work teaser: one sampling type feeding a
	// different one. Reservoir-sample the output of a subset-sum sample.
	reg := sfunlib.Default(1)
	e, err := engine.New(4096)
	if err != nil {
		t.Fatal(err)
	}
	lowQ, _ := gsql.Parse(`SELECT time, srcIP, destIP, len, uts FROM PKT`)
	lowPlan, err := gsql.Analyze(lowQ, trace.Schema(), reg)
	if err != nil {
		t.Fatal(err)
	}
	lowNode, err := e.AddLowLevel("low", lowPlan)
	if err != nil {
		t.Fatal(err)
	}
	ssQ, _ := gsql.Parse(`
SELECT tb, time, srcIP, uts, UMAX(sum(len), ssthreshold()) AS adjlen
FROM low
WHERE ssample(len, 400, 2, 10) = TRUE
GROUP BY time/2 as tb, srcIP, uts, time
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`)
	ssPlan, err := gsql.Analyze(ssQ, lowNode.Schema(), reg)
	if err != nil {
		t.Fatal(err)
	}
	ssNode, err := e.AddHighLevel("ss", lowNode, ssPlan)
	if err != nil {
		t.Fatal(err)
	}
	resQ, _ := gsql.Parse(`
SELECT tb2, srcIP, adjlen
FROM ss
WHERE rsample(uts, 50, 5) = TRUE
GROUP BY time/2 as tb2, srcIP, adjlen, uts
HAVING rsfinal_clean(uts) = TRUE
CLEANING WHEN rsdo_clean(count_distinct$(*)) = TRUE
CLEANING BY rsclean_with(uts) = TRUE`)
	resPlan, err := gsql.Analyze(resQ, ssNode.Schema(), reg)
	if err != nil {
		t.Fatal(err)
	}
	resNode, err := e.AddHighLevel("res", ssNode, resPlan)
	if err != nil {
		t.Fatal(err)
	}
	var out int
	resNode.Subscribe(func(tuple.Tuple) error { out++; return nil })
	feed, _ := trace.NewSteady(trace.SteadyConfig{Seed: 8, Duration: 3.9, Rate: 50000})
	if err := e.Run(feed); err != nil {
		t.Fatal(err)
	}
	if out == 0 || out > 2*50 {
		t.Errorf("cascaded sample rows = %d, want <= 50 per window", out)
	}
}

func TestPrioritySamplingQueryEndToEnd(t *testing.T) {
	// Priority sampling (the authors' post-paper successor to threshold
	// sampling) through the same operator: exactly k samples per window,
	// sum of adjusted weights max(w, tau) estimates total bytes.
	const k = 200
	pkts := synthPackets(40000, 19, 50, 500, 41)
	rows := run(t, `
SELECT tb, uts, srcIP, UMAX(sum(len), pstau()) AS adjlen
FROM PKT
WHERE psample(uts, len, 200) = TRUE
GROUP BY time/20 as tb, srcIP, uts
HAVING pskeep(uts) = TRUE
CLEANING WHEN psdo_clean(count_distinct$(*)) = TRUE
CLEANING BY pskeep(uts) = TRUE`, pkts)
	if len(rows) != k {
		t.Fatalf("sample size = %d, want exactly %d", len(rows), k)
	}
	var est float64
	for _, r := range rows {
		est += r[3].AsFloat()
	}
	actual := 40000.0 * 500
	if rel := math.Abs(est-actual) / actual; rel > 0.2 {
		t.Errorf("estimate %v vs actual %v (rel err %v)", est, actual, rel)
	}
}

func TestMinHashQueryRarity(t *testing.T) {
	// The min-hash query's per-hash counts support the Datar-
	// Muthukrishnan rarity estimate: the fraction of sampled distinct
	// destinations seen exactly once. Cross-check against the exact
	// rarity of the stream.
	r := xrand.New(51)
	var pkts []trace.Packet
	counts := map[uint32]int{}
	for i := 0; i < 30000; i++ {
		var d uint32
		if r.Float64() < 0.25 {
			d = uint32(10000 + i) // singleton destinations
		} else {
			d = uint32(r.Intn(600)) // repeated pool
		}
		counts[d]++
		pkts = append(pkts, trace.Packet{Time: uint64(i) * 1e5, SrcIP: 1, DstIP: d, Len: 1})
	}
	rows := run(t, `
SELECT tb, HX, count(*)
FROM PKT
WHERE HX <= Kth_smallest_value$(HX, 256)
GROUP BY time/60 as tb, srcIP, H(destIP) as HX
SUPERGROUP BY tb, srcIP
HAVING HX <= Kth_smallest_value$(HX, 256)
CLEANING WHEN count_distinct$(*) >= 256
CLEANING BY HX <= Kth_smallest_value$(HX, 256)`, pkts)
	if len(rows) != 256 {
		t.Fatalf("signature size = %d", len(rows))
	}
	ones := 0
	for _, row := range rows {
		if row[2].AsInt() == 1 {
			ones++
		}
	}
	est := float64(ones) / float64(len(rows))
	exactOnes := 0
	for _, c := range counts {
		if c == 1 {
			exactOnes++
		}
	}
	exact := float64(exactOnes) / float64(len(counts))
	if math.Abs(est-exact) > 0.12 {
		t.Errorf("rarity estimate %v vs exact %v", est, exact)
	}
}

func TestSumSuperWithEvictions(t *testing.T) {
	// sum$(len) tracks total bytes over live groups; evicting a group
	// during cleaning must subtract its accumulated contribution. Keep
	// only groups that have seen >= 2 packets whenever any group count
	// reaches 3.
	pkts := []trace.Packet{
		{Time: 1e9, SrcIP: 1, Len: 100},
		{Time: 1e9, SrcIP: 2, Len: 10},
		{Time: 1e9, SrcIP: 1, Len: 100},
		{Time: 1e9, SrcIP: 1, Len: 100}, // count(srcIP=1)=3 triggers cleaning; srcIP=2 evicted
		{Time: 1e9, SrcIP: 3, Len: 7},
	}
	rows := run(t, `
SELECT srcIP, count(*), sum$(len)
FROM PKT
GROUP BY time/10 as tb, srcIP
CLEANING WHEN count(*) >= 3
CLEANING BY count(*) >= 2`, pkts)
	// Final groups: srcIP 1 (3 pkts, 300B) and srcIP 3 (1 pkt, 7B).
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, row := range rows {
		// sum$ at output reflects live groups only: 300 + 7, with the
		// evicted group's 10 subtracted.
		if got := row[2].AsFloat(); got != 307 {
			t.Errorf("sum$ = %v, want 307", got)
		}
	}
}

func TestOperatorNilPlan(t *testing.T) {
	if _, err := operator.New(nil, nil); err == nil {
		t.Error("nil plan accepted")
	}
}

func TestHeavyHitterQueryMatchesStandalone(t *testing.T) {
	// Cross-check the operator-expressed Manku-Motwani algorithm against
	// the standalone lossy-counting implementation on the same sequence
	// with the same bucket width: both must satisfy the guarantee (no
	// false negatives at support s, no false positives below (s-eps)N),
	// and their counted frequencies for surviving elements must agree.
	const w = 500 // bucket width = 1/epsilon
	r := xrand.New(61)
	z := xrand.NewZipf(r, 1.15, 4000)
	var keys []uint32
	const n = 80000
	for i := 0; i < n; i++ {
		keys = append(keys, uint32(z.Uint64()))
	}

	standalone, err := heavyhitter.New[uint32](1.0 / w)
	if err != nil {
		t.Fatal(err)
	}
	var pkts []trace.Packet
	trueCounts := map[uint32]int64{}
	for i, k := range keys {
		standalone.Offer(k)
		trueCounts[k]++
		pkts = append(pkts, trace.Packet{Time: uint64(i), SrcIP: k, Len: 1})
	}

	rows := run(t, `
SELECT tb, srcIP, count(*)
FROM PKT
GROUP BY time/100000000000 as tb, srcIP
CLEANING WHEN local_count(500) = TRUE
CLEANING BY count(*) >= current_bucket() - first(current_bucket())`, pkts)

	const support = 0.02
	queryCounts := map[uint32]int64{}
	for _, row := range rows {
		queryCounts[uint32(row[1].Uint())] = row[2].AsInt()
	}
	// Guarantees for the query output, applying the support threshold
	// the way the standalone Query does.
	for k, c := range trueCounts {
		if float64(c) >= support*n {
			qc, ok := queryCounts[k]
			if !ok {
				t.Errorf("query missed heavy element %d (freq %d)", k, c)
				continue
			}
			if qc > c {
				t.Errorf("query overcounted %d: %d > true %d", k, qc, c)
			}
			if float64(c-qc) > float64(n)/w {
				t.Errorf("query undercount beyond eps*N for %d: %d vs %d", k, qc, c)
			}
		}
	}
	// Agreement with the standalone survivors at the same support.
	for _, e := range standalone.Query(support) {
		qc, ok := queryCounts[e.Key]
		if !ok {
			t.Errorf("element %d survives standalone but not the query", e.Key)
			continue
		}
		// Identical algorithm, identical sequence: counts must be close
		// (bucket-boundary timing differs by at most one bucket).
		if qc > e.Freq+int64(w) || e.Freq > qc+int64(w) {
			t.Errorf("element %d: query count %d vs standalone %d", e.Key, qc, e.Freq)
		}
	}
}
