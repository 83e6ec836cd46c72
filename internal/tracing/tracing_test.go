package tracing

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"streamop/internal/telemetry"
)

// offerAll feeds n sequence numbers through the schedule and returns the
// selected ones.
func offerAll(t *Tracer, n int) []uint64 {
	var seqs []uint64
	for seq := uint64(0); seq < uint64(n); seq++ {
		if tt := t.SourceOffer(seq); tt != nil {
			seqs = append(seqs, seq)
		}
	}
	return seqs
}

func TestScheduleDeterministic(t *testing.T) {
	a := offerAll(New(Config{Every: 100, Seed: 7}), 100000)
	b := offerAll(New(Config{Every: 100, Seed: 7}), 100000)
	if len(a) == 0 {
		t.Fatal("schedule selected nothing")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := offerAll(New(Config{Every: 100, Seed: 8}), 100000)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
	// Mean gap ~= Every.
	mean := float64(a[len(a)-1]-a[0]) / float64(len(a)-1)
	if mean < 50 || mean > 150 {
		t.Errorf("mean gap %v, want ~100", mean)
	}
}

func TestEveryOneTracesEverything(t *testing.T) {
	tr := New(Config{Every: 1, Seed: 1})
	got := offerAll(tr, 500)
	if len(got) != 500 {
		t.Fatalf("Every=1 selected %d of 500", len(got))
	}
}

func TestDispositionExactlyOnce(t *testing.T) {
	tr := New(Config{Every: 1, Seed: 1})
	tt := tr.SourceOffer(0)
	tt.Where("n", false) // terminal: where_rejected
	tt.Having("n", false)
	tt.Finish("emitted")
	if tt.Disposition() != "where_rejected" {
		t.Errorf("disposition = %q, want where_rejected (first wins)", tt.Disposition())
	}
	sum := tr.Summary()
	if sum.Finished != 1 || sum.Dispositions["where_rejected"] != 1 {
		t.Errorf("summary = %+v", sum)
	}
	// Spans after the terminal disposition are suppressed.
	before := sum.Spans
	tt.Emit("n", 3)
	if got := tr.Summary().Spans; got != before {
		t.Errorf("span recorded after disposition: %d -> %d", before, got)
	}
}

func TestSourceQueueMatching(t *testing.T) {
	tr := New(Config{Every: 1, Seed: 1})
	var tts []*TupleTrace
	for seq := uint64(0); seq < 5; seq++ {
		tt := tr.SourceOffer(seq)
		tr.SourceEnqueued(tt, seq, int(seq)+1)
		tts = append(tts, tt)
	}
	m := tr.TakeSource(0, 3)
	if len(m) != 3 || m[0].Row != 0 || m[2].Row != 2 || len(m[1].TTs) != 1 || m[1].TTs[0] != tts[1] || m[1].From != "" {
		t.Fatalf("TakeSource(0,3) = %+v", m)
	}
	m = tr.TakeSource(3, 2)
	if len(m) != 2 || m[0].Row != 0 || m[1].Row != 1 {
		t.Fatalf("TakeSource(3,2) = %+v", m)
	}
	if m2 := tr.TakeSource(5, 10); m2 != nil {
		t.Errorf("empty queue returned %+v", m2)
	}
}

// A step's traced rows: the walk takes them in row order, recording the
// transfer span of a row another node emitted; what the step leaves —
// rows not taken, output rows staged for a sink that never claimed them —
// FinishCurrent ends.
func TestCurrentRowsCycle(t *testing.T) {
	tr := New(Config{Every: 1, Seed: 1})
	var tts [4]*TupleTrace
	for i := range tts {
		tts[i] = tr.SourceOffer(uint64(i))
	}
	tr.SetCurrent([]RowTraces{{Row: 2, From: "low", TTs: tts[:1]}, {Row: 5, TTs: tts[1:2]}, {Row: 9, TTs: tts[2:3]}})
	if r := tr.NextRow(); r != 2 {
		t.Fatalf("NextRow = %d, want 2", r)
	}
	if got, next := tr.TakeRow("high"); len(got) != 1 || got[0] != tts[0] || next != 5 {
		t.Fatalf("TakeRow = %v, %d", got, next)
	}
	if spans := tr.Summary().Spans; spans != 1 {
		t.Fatalf("%d spans after taking the row from another node, want its transfer", spans)
	}
	if _, next := tr.TakeRow("high"); next != 9 || tr.Summary().Spans != 1 {
		t.Fatalf("taking a source row: next %d, %d spans", next, tr.Summary().Spans)
	}
	// Staging records each trace's emit span.
	tr.Stage("high", 0, 0, tts[1:2])
	tr.Stage("high", 0, 3, tts[0:1])
	if spans := tr.Summary().Spans; spans != 3 {
		t.Fatalf("%d spans after staging two rows, want 3", spans)
	}
	if s := tr.TakeStaged(); len(s) != 2 || s[1].Row != 3 || s[1].TTs[0] != tts[0] {
		t.Fatalf("TakeStaged = %+v", s)
	}
	tr.Stage("high", 0, 1, tts[3:])
	tr.FinishCurrent("node_failed")
	for i, want := range []string{"", "", "node_failed", "node_failed"} {
		if got := tts[i].Disposition(); got != want {
			t.Errorf("trace %d: disposition %q, want %q", i, got, want)
		}
	}
	if r, s := tr.NextRow(), tr.TakeStaged(); r != -1 || len(s) != 0 {
		t.Errorf("after FinishCurrent: next row %d, %d staged", r, len(s))
	}
}

func TestRingDropFinishes(t *testing.T) {
	tr := New(Config{Every: 1, Seed: 1})
	tt := tr.SourceOffer(0)
	tr.SourceDropped(tt, 8)
	if tt.Disposition() != "ring_dropped" {
		t.Errorf("disposition = %q", tt.Disposition())
	}
}

func TestFinishOpen(t *testing.T) {
	tr := New(Config{Every: 1, Seed: 1})
	tt := tr.SourceOffer(0)
	tr.SourceEnqueued(tt, 0, 1)
	tr.FinishOpen("stream_end")
	if tt.Disposition() != "stream_end" {
		t.Errorf("disposition = %q", tt.Disposition())
	}
	if tr.Summary().Started != tr.Summary().Finished {
		t.Error("open traces remain after FinishOpen")
	}
}

func TestSpanCap(t *testing.T) {
	tr := New(Config{Every: 1, Seed: 1, MaxSpans: 4})
	tt := tr.SourceOffer(0)
	for i := 0; i < 10; i++ {
		tt.Emit("n", int64(i))
	}
	sum := tr.Summary()
	if sum.Spans > 5 { // 4 spans + the disposition instant below
		t.Errorf("span cap not enforced: %d", sum.Spans)
	}
	if sum.DroppedSpans == 0 {
		t.Error("no dropped spans counted")
	}
	tt.Finish("emitted") // dispositions are always retained
	if tr.Summary().Dispositions["emitted"] != 1 {
		t.Error("disposition lost to span cap")
	}
}

func TestWriteChromeTraceShape(t *testing.T) {
	tr := New(Config{Every: 1, Seed: 1})
	tt := tr.SourceOffer(0)
	tr.SourceEnqueued(tt, 0, 1)
	tr.TakeSource(0, 1)
	tt.Where("node", true)
	tt.Emit("node", 0)
	tt.Finish("emitted")

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("not a JSON array: %v\n%s", err, buf.String())
	}
	var meta, spans, instants int
	for _, ev := range events {
		switch ev["ph"] {
		case "M":
			meta++
			args := ev["args"].(map[string]any)
			if !strings.Contains(args["name"].(string), "emitted") {
				t.Errorf("thread name missing disposition: %v", args["name"])
			}
		case "X":
			spans++
		case "i":
			instants++
		default:
			t.Errorf("unexpected ph %v", ev["ph"])
		}
		if ev["pid"] == nil || ev["tid"] == nil {
			t.Errorf("event missing pid/tid: %v", ev)
		}
	}
	if meta != 1 || instants != 1 || spans < 3 {
		t.Errorf("meta=%d spans=%d instants=%d", meta, spans, instants)
	}

	// A nil tracer writes an empty array.
	buf.Reset()
	var nilTr *Tracer
	if err := nilTr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Errorf("nil tracer wrote %q", buf.String())
	}
}

func TestCollectorMirroring(t *testing.T) {
	var buf bytes.Buffer
	col := telemetry.NewWithEvents(&buf)
	tr := New(Config{Every: 1, Seed: 1})
	tr.SetCollector(col)
	tt := tr.SourceOffer(0)
	tr.SourceEnqueued(tt, 0, 1)
	tt.Finish("emitted")
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	var spans, dones int
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL %q: %v", line, err)
		}
		switch ev["event"] {
		case "trace_span":
			spans++
		case "trace_done":
			dones++
		}
	}
	if spans != 1 || dones != 1 {
		t.Errorf("mirrored %d spans, %d dones", spans, dones)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tt := tr.SourceOffer(0); tt != nil {
		t.Error("nil tracer offered a trace")
	}
	if m := tr.TakeSource(0, 10); m != nil {
		t.Error("nil tracer matched")
	}
	if r := tr.NextRow(); r != -1 {
		t.Errorf("nil tracer has a current row at %d", r)
	}
	if s := tr.TakeStaged(); s != nil {
		t.Error("nil tracer has staged rows")
	}
	tr.FinishOpen("stream_end")
	tr.SetCollector(nil)
	if s := tr.Summary(); s.Started != 0 {
		t.Error("nil tracer summary non-zero")
	}
}

func TestDefaultAmbient(t *testing.T) {
	if Default() != nil {
		t.Fatal("ambient tracer set at start")
	}
	tr := New(Config{Every: 1})
	SetDefault(tr)
	defer SetDefault(nil)
	if Default() != tr {
		t.Error("SetDefault not visible")
	}
}
