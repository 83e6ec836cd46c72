package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"streamop/internal/tuple"
)

func TestSchemaShape(t *testing.T) {
	s := Schema()
	if s.NumFields() != NumFields {
		t.Fatalf("schema has %d fields, constants say %d", s.NumFields(), NumFields)
	}
	if f := s.Field(FieldTime); f.Name != "time" || f.Ordering != tuple.Increasing {
		t.Errorf("time field = %+v", f)
	}
	if f := s.Field(FieldUTS); f.Name != "uts" || f.Ordering != tuple.Unordered {
		t.Errorf("uts field = %+v", f)
	}
	for i := 0; i < s.NumFields(); i++ {
		if _, ok := s.Lookup(s.Field(i).Name); !ok {
			t.Errorf("field %q not found by Lookup", s.Field(i).Name)
		}
	}
}

func TestPacketTuple(t *testing.T) {
	p := Packet{Time: 5_500_000_000, SrcIP: 0x0a000001, DstIP: 0xac100002,
		SrcPort: 1234, DstPort: 80, Proto: 6, Len: 1500}
	tp := p.Tuple()
	if tp[FieldTime].Uint() != 5 {
		t.Errorf("time = %v, want 5 (seconds)", tp[FieldTime])
	}
	if tp[FieldUTS].Uint() != 5_500_000_000 {
		t.Errorf("uts = %v", tp[FieldUTS])
	}
	if tp[FieldLen].Int() != 1500 {
		t.Errorf("len = %v", tp[FieldLen])
	}
	if tp[FieldSrcIP].Uint() != 0x0a000001 {
		t.Errorf("srcIP = %v", tp[FieldSrcIP])
	}
}

func TestPacketString(t *testing.T) {
	p := Packet{Time: 1, SrcIP: 0x0a000001, DstIP: 0xac100002, SrcPort: 9, DstPort: 80, Proto: 6, Len: 40}
	want := "1 10.0.0.1:9 > 172.16.0.2:80 proto=6 len=40"
	if got := p.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestBurstyValidation(t *testing.T) {
	if _, err := NewBursty(BurstyConfig{Duration: 0, BaseRate: 100}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := NewBursty(BurstyConfig{Duration: 1, BaseRate: 0}); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestBurstyDeterministicAndOrdered(t *testing.T) {
	cfg := DefaultBursty(42, 2)
	a, _ := NewBursty(cfg)
	b, _ := NewBursty(cfg)
	pa, pb := Collect(a), Collect(b)
	if len(pa) == 0 || len(pa) != len(pb) {
		t.Fatalf("lens %d, %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed diverged")
		}
	}
	for i := 1; i < len(pa); i++ {
		if pa[i].Time < pa[i-1].Time {
			t.Fatal("timestamps not monotone")
		}
	}
}

func TestBurstyRateVariability(t *testing.T) {
	// Per-second packet counts must swing substantially (research feed:
	// 5k-15k pps) and include collapse windows near DropFraction load.
	cfg := DefaultBursty(7, 200)
	f, _ := NewBursty(cfg)
	counts := make([]int, 200)
	for {
		p, ok := f.Next()
		if !ok {
			break
		}
		sec := int(p.Time / 1e9)
		if sec < len(counts) {
			counts[sec]++
		}
	}
	min, max := counts[0], counts[0]
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if float64(max) < 1.8*float64(min+1) {
		t.Errorf("rate swing too small: min %d, max %d", min, max)
	}
	if max < 10000 {
		t.Errorf("peak rate %d too low", max)
	}
	if min > 2000 {
		t.Errorf("no collapse observed: min %d", min)
	}
}

func TestSteadyRate(t *testing.T) {
	cfg := DefaultSteady(3, 2)
	cfg.Rate = 50000
	f, _ := NewSteady(cfg)
	n := len(Collect(f))
	if math.Abs(float64(n)-100000) > 12000 {
		t.Errorf("steady 2s at 50k pps produced %d packets", n)
	}
}

func TestSteadyValidation(t *testing.T) {
	if _, err := NewSteady(SteadyConfig{Duration: 0, Rate: 1}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := NewSteady(SteadyConfig{Duration: 1, Rate: 0}); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestPacketSizesBimodal(t *testing.T) {
	f, _ := NewSteady(DefaultSteady(5, 1))
	var acks, mtu, total int
	for {
		p, ok := f.Next()
		if !ok {
			break
		}
		total++
		switch p.Len {
		case 40:
			acks++
		case 1500:
			mtu++
		}
	}
	if total == 0 {
		t.Fatal("no packets")
	}
	fa, fm := float64(acks)/float64(total), float64(mtu)/float64(total)
	if math.Abs(fa-0.5) > 0.05 || math.Abs(fm-0.4) > 0.05 {
		t.Errorf("size mix: acks %v, mtu %v", fa, fm)
	}
}

func TestDDoSFloodsVictim(t *testing.T) {
	cfg := DefaultDDoS(9, 30)
	f, err := NewDDoS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[uint32]bool{}
	var attack, background int
	var prev uint64
	for {
		p, ok := f.Next()
		if !ok {
			break
		}
		if p.Time < prev {
			t.Fatal("merged feed not time-ordered")
		}
		prev = p.Time
		if p.DstIP == cfg.Victim && p.Len == 40 && p.DstPort == 80 {
			attack++
			srcs[p.SrcIP] = true
		} else {
			background++
		}
	}
	if attack < 500000 {
		t.Errorf("attack packets = %d, want ~1M", attack)
	}
	if background < 100000 {
		t.Errorf("background packets = %d", background)
	}
	if float64(len(srcs)) < 0.99*float64(attack) {
		t.Errorf("spoofed sources not unique: %d srcs for %d packets", len(srcs), attack)
	}
}

func TestFlowsStructure(t *testing.T) {
	cfg := DefaultFlows(11, 20)
	f, err := NewFlows(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flows := map[FlowKey]int{}
	var prev uint64
	total := 0
	for {
		p, ok := f.Next()
		if !ok {
			break
		}
		if p.Time < prev {
			t.Fatal("flow feed not time-ordered")
		}
		prev = p.Time
		flows[p.Key()]++
		total++
	}
	if len(flows) < 1000 {
		t.Errorf("only %d flows in 20s at 200 flows/sec", len(flows))
	}
	mean := float64(total) / float64(len(flows))
	if mean < 5 || mean > 120 {
		t.Errorf("mean flow size %v, want ~30", mean)
	}
	// Pareto sizes: some flow should be much larger than the mean.
	max := 0
	for _, c := range flows {
		if c > max {
			max = c
		}
	}
	if float64(max) < 5*mean {
		t.Errorf("no heavy-tailed flow: max %d vs mean %v", max, mean)
	}
}

func TestFlowsValidation(t *testing.T) {
	bad := []FlowConfig{
		{Duration: 0, FlowRate: 1, MeanPackets: 2, PacketGap: 0.1},
		{Duration: 1, FlowRate: 0, MeanPackets: 2, PacketGap: 0.1},
		{Duration: 1, FlowRate: 1, MeanPackets: 0, PacketGap: 0.1},
		{Duration: 1, FlowRate: 1, MeanPackets: 2, PacketGap: 0},
	}
	for i, cfg := range bad {
		if _, err := NewFlows(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	feed, _ := NewSteady(SteadyConfig{Seed: 1, Duration: 0.05, Rate: 10000})
	orig := Collect(feed)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range orig {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != int64(len(orig)) {
		t.Errorf("Count = %d, want %d", w.Count(), len(orig))
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(got) != len(orig) {
		t.Fatalf("round trip %d != %d", len(got), len(orig))
	}
	for i := range orig {
		if got[i] != orig[i] {
			t.Fatalf("record %d mismatch: %v vs %v", i, got[i], orig[i])
		}
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a trace file"))); err == nil {
		t.Error("garbage header accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte("SO"))); err == nil {
		t.Error("truncated header accepted")
	}
	// Valid header, truncated record: Next returns false and Err is set.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Packet{Time: 1})
	w.Flush()
	data := buf.Bytes()[:buf.Len()-3]
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); ok {
		t.Error("truncated record decoded")
	}
	if r.Err() == nil {
		t.Error("truncated record produced no error")
	}
}

func BenchmarkBurstyNext(b *testing.B) {
	f, _ := NewBursty(DefaultBursty(1, 1e9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Next()
	}
}

func BenchmarkSteadyNext(b *testing.B) {
	f, _ := NewSteady(DefaultSteady(1, 1e9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Next()
	}
}

func TestFloodValidation(t *testing.T) {
	if _, err := NewFlood(FloodConfig{Start: 0, End: 1, Rate: 0}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewFlood(FloodConfig{Start: 1, End: 1, Rate: 10}); err == nil {
		t.Error("empty interval accepted")
	}
}

func TestFloodPacketShape(t *testing.T) {
	f, err := NewFlood(FloodConfig{Seed: 1, Start: 0.5, End: 1, Rate: 10000, Victim: 77})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	srcs := map[uint32]bool{}
	for {
		p, ok := f.Next()
		if !ok {
			break
		}
		n++
		if p.DstIP != 77 || p.DstPort != 80 || p.Len != 40 || p.Proto != 6 {
			t.Fatalf("attack packet shape: %+v", p)
		}
		if p.Time < 5e8 || p.Time >= 1e9 {
			t.Fatalf("attack packet outside interval: %d", p.Time)
		}
		srcs[p.SrcIP] = true
	}
	if n < 4000 || n > 6000 {
		t.Errorf("flood produced %d packets, want ~5000", n)
	}
	if len(srcs) < n-10 {
		t.Errorf("spoofed sources not unique: %d of %d", len(srcs), n)
	}
}

func TestMergeOrdering(t *testing.T) {
	a, _ := NewSteady(SteadyConfig{Seed: 1, Duration: 0.2, Rate: 5000})
	b, _ := NewFlood(FloodConfig{Seed: 2, Start: 0.05, End: 0.15, Rate: 20000, Victim: 9})
	m := Merge(a, b)
	var prev uint64
	total := 0
	for {
		p, ok := m.Next()
		if !ok {
			break
		}
		if p.Time < prev {
			t.Fatal("merge out of order")
		}
		prev = p.Time
		total++
	}
	// ~1000 background + ~2000 attack.
	if total < 2500 || total > 3500 {
		t.Errorf("merged %d packets", total)
	}
}

func TestMergeExhaustsBoth(t *testing.T) {
	a, _ := NewSteady(SteadyConfig{Seed: 3, Duration: 0.01, Rate: 1000})
	b, _ := NewSteady(SteadyConfig{Seed: 4, Duration: 0.02, Rate: 1000})
	na := len(Collect(a))
	nb := len(Collect(b))
	a2, _ := NewSteady(SteadyConfig{Seed: 3, Duration: 0.01, Rate: 1000})
	b2, _ := NewSteady(SteadyConfig{Seed: 4, Duration: 0.02, Rate: 1000})
	if got := len(Collect(Merge(a2, b2))); got != na+nb {
		t.Errorf("merged %d, want %d", got, na+nb)
	}
}

// TestOpen: every name FeedNames lists opens the feed its constructor
// builds at the default configuration, and an unknown name is refused.
func TestOpen(t *testing.T) {
	direct := map[string]func() (Feed, error){
		"bursty": func() (Feed, error) { return NewBursty(DefaultBursty(3, 1)) },
		"steady": func() (Feed, error) { return NewSteady(DefaultSteady(3, 1)) },
		"ddos":   func() (Feed, error) { return NewDDoS(DefaultDDoS(3, 1)) },
		"flows":  func() (Feed, error) { return NewFlows(DefaultFlows(3, 1)) },
	}
	names := strings.Split(FeedNames, "|")
	if len(names) != len(direct) {
		t.Fatalf("FeedNames = %q, want the %d feeds", FeedNames, len(direct))
	}
	for _, name := range names {
		got, err := Open(name, 3, 1)
		if err != nil {
			t.Fatalf("Open(%q): %v", name, err)
		}
		want, err := direct[name]()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 1000; i++ {
			g, gok := got.Next()
			w, wok := want.Next()
			if g != w || gok != wok {
				t.Fatalf("Open(%q) packet %d = %v, want %v", name, i, g, w)
			}
		}
	}
	if _, err := Open("nope", 3, 1); err == nil || err.Error() != `unknown feed "nope"` {
		t.Errorf("Open(nope) error = %v", err)
	}
}
