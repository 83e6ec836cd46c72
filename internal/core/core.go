// Package core composes the paper's contribution into a directly usable
// unit: it compiles a GSQL sampling query (grouping + SUPERGROUP +
// CLEANING WHEN/BY + stateful functions) against a stream schema and runs
// it over packets or tuples, collecting or streaming the per-window
// samples.
//
// The pieces it wires together are the parser/analyzer (internal/gsql),
// the operator runtime (internal/operator) and the stateful-function
// runtime library (internal/sfunlib). The root streamop package re-exports
// this API for library consumers.
package core

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"streamop/internal/gsql"
	"streamop/internal/operator"
	"streamop/internal/profile"
	"streamop/internal/sfun"
	"streamop/internal/sfunlib"
	"streamop/internal/trace"
	"streamop/internal/tuple"
)

// Row is one output sample row with named columns.
type Row struct {
	Columns []string
	Values  tuple.Tuple
}

// Get returns the value of the named column; ok is false if absent.
func (r Row) Get(name string) (v interface{ String() string }, ok bool) {
	for i, c := range r.Columns {
		if c == name {
			return r.Values[i], true
		}
	}
	return nil, false
}

// Options configures query compilation.
type Options struct {
	// Schema is the input stream schema; nil means the PKT packet schema.
	Schema *tuple.Schema
	// Registry supplies stateful functions; nil means the full standard
	// library (sfunlib) seeded with Seed.
	Registry *sfun.Registry
	// Seed seeds the randomized library functions when Registry is nil.
	Seed uint64
	// OnRow receives output rows as they are produced; nil collects them
	// in Query.Collected (unless Query.Rows drives the feed instead). The
	// Row is the callback's to keep: it is a copy of the operator's.
	OnRow func(Row) error
	// Profile enables per-stage cost profiling (EXPLAIN ANALYZE): Compile
	// attaches a profiler and Query.Profiler().Report() yields the
	// attribution after (or during) a run. A query text carrying an
	// EXPLAIN ANALYZE prefix is profiled even when this is false. The
	// clocks are per batch; the per-packet entry points offer batches of
	// one.
	Profile bool
}

// Query is a compiled, running sampling query.
type Query struct {
	plan *gsql.Plan
	op   *operator.Operator
	cols []string
	emit func(Row) error

	// Collected accumulates output when no OnRow callback was configured
	// and Rows is not driving a feed. (It was named Rows before Rows
	// became the streaming iterator.)
	Collected []Row

	feed    trace.Feed
	err     error
	scratch tuple.Tuple
	batch   *tuple.Batch // columnar input scratch for ProcessPackets

	// Profiling (nil when off): the profiler and this query's node profile.
	prof *profile.Profiler
	np   *profile.NodeProfile
}

// Compile parses, analyzes and instantiates a sampling query.
func Compile(src string, opts Options) (*Query, error) {
	schema := opts.Schema
	if schema == nil {
		schema = trace.Schema()
	}
	reg := opts.Registry
	if reg == nil {
		reg = sfunlib.Default(opts.Seed)
	}
	parsed, err := gsql.Parse(src)
	if err != nil {
		return nil, err
	}
	plan, err := gsql.Analyze(parsed, schema, reg)
	if err != nil {
		return nil, err
	}
	q := &Query{plan: plan, cols: plan.SelectNames, emit: opts.OnRow}
	if schema.Name() == trace.Schema().Name() && schema.NumFields() == trace.NumFields {
		q.scratch = make(tuple.Tuple, trace.NumFields)
	}
	q.op, err = operator.New(plan, func(row tuple.Tuple) error {
		// The operator lends its row; a Row is the caller's to keep.
		r := Row{Columns: q.cols, Values: row.Clone()}
		if q.emit != nil {
			return q.emit(r)
		}
		q.Collected = append(q.Collected, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if opts.Profile || parsed.Explain == "analyze" {
		q.prof = profile.New()
		q.np = q.prof.Node("query")
		q.op.SetProfile(q.np)
	}
	return q, nil
}

// Columns returns the output column names.
func (q *Query) Columns() []string { return q.cols }

// Plan exposes the compiled plan (for engine composition).
func (q *Query) Plan() *gsql.Plan { return q.plan }

// ProcessTuple offers one input tuple, as a batch of one.
func (q *Query) ProcessTuple(t tuple.Tuple) error { return q.op.Process(t) }

// ProcessPacket offers one packet, as a batch of one; the query must read
// the PKT schema.
func (q *Query) ProcessPacket(p trace.Packet) error {
	if q.scratch == nil {
		return fmt.Errorf("core: query does not read the PKT schema")
	}
	p.AppendTuple(q.scratch)
	return q.op.Process(q.scratch)
}

// ProcessPackets offers a slice of packets as columnar batches — the
// query's hot path. It is row-for-row equivalent to calling ProcessPacket
// on each packet (same rows, stats and errors; see operator.ProcessBatch
// for the exactness contract) but converts packets column-major, and its
// column kernels run over whole batches. The query must read the PKT
// schema.
func (q *Query) ProcessPackets(pkts []trace.Packet) error {
	if len(pkts) == 0 {
		return nil
	}
	if q.scratch == nil {
		return fmt.Errorf("core: query does not read the PKT schema")
	}
	if q.batch == nil {
		q.batch = tuple.NewBatch(trace.Schema(), tuple.DefaultBatchRows)
	}
	for len(pkts) > 0 {
		n := min(len(pkts), tuple.DefaultBatchRows)
		q.batch.Reset()
		pt := q.np.Start()
		trace.AppendBatch(q.batch, pkts[:n])
		q.np.Charge(profile.StageDequeue, pt, int64(n), int64(n))
		if err := q.op.ProcessBatch(q.batch); err != nil {
			return err
		}
		pkts = pkts[n:]
	}
	return nil
}

// RunFeed drains an entire packet feed through the query and flushes.
func (q *Query) RunFeed(feed trace.Feed) error {
	return q.RunContext(context.Background(), feed)
}

// RunContext is RunFeed with cancellation: when ctx is cancelled the
// query stops taking packets, flushes the open window (so the collected
// or streamed output ends on a window boundary), and returns ctx.Err().
// A context.Background() run is identical to RunFeed.
func (q *Query) RunContext(ctx context.Context, feed trace.Feed) error {
	cancelled, err := q.feedAll(ctx.Done(), feed)
	if err == nil && cancelled {
		err = ctx.Err()
	}
	return err
}

// feedAll is the one feed loop of RunContext and RowsContext: it pulls up
// to tuple.DefaultBatchRows packets, offers them to ProcessPackets, and
// repeats until the feed ends or done closes, which it checks before every
// pull; then it flushes the open window. A cancel therefore takes effect
// once the batch in hand is processed. An error — a break out of Rows is
// one — ends the run at its row, leaving at most the rest of one pulled
// batch unprocessed; Stats is what the walk saw, so a break leaves it as
// a packet-at-a-time feed would. It reports whether done stopped it.
func (q *Query) feedAll(done <-chan struct{}, feed trace.Feed) (cancelled bool, err error) {
	buf := make([]trace.Packet, 0, tuple.DefaultBatchRows)
	for more := true; more; {
		select {
		case <-done:
			return true, q.Flush()
		default:
		}
		for buf = buf[:0]; len(buf) < cap(buf); {
			p, ok := feed.Next()
			if more = ok; !ok {
				break
			}
			buf = append(buf, p)
		}
		if err := q.ProcessPackets(buf); err != nil {
			return false, err
		}
	}
	return false, q.Flush()
}

// SetFeed attaches a packet feed for Rows to drive. The feed is consumed
// by the first Rows loop.
func (q *Query) SetFeed(feed trace.Feed) { q.feed = feed }

// errStopRows aborts feed processing when a Rows consumer breaks out of
// its loop early; it never escapes the iterator.
var errStopRows = errors.New("core: row iteration stopped")

// Rows returns the query's output as a range-able sequence. With a feed
// attached (SetFeed), the loop body runs as each window's rows are
// produced — packets are pulled a batch at a time (see feedAll), and
// breaking out of the loop stops the feed; check Err afterwards for a
// processing error. Without a feed it replays the rows Collected by an
// earlier RunFeed, so existing collect-then-iterate code only changes
// spelling:
//
//	q.SetFeed(feed)
//	for row := range q.Rows() { ... }
//	if err := q.Err(); err != nil { ... }
func (q *Query) Rows() iter.Seq[Row] {
	return q.RowsContext(context.Background())
}

// RowsContext is Rows with cancellation: the feed-driven loop checks ctx
// between batches and, when cancelled, flushes the open window (so the
// streamed output ends on a window boundary) and records ctx.Err in Err.
// The sequence runs entirely on the caller's goroutine — no background
// goroutine is spawned — so a loop abandoned by break, panic, or
// cancellation leaks nothing (core_test.go's goroutine-accounting
// regression test holds this).
func (q *Query) RowsContext(ctx context.Context) iter.Seq[Row] {
	return func(yield func(Row) bool) {
		if q.feed == nil {
			for _, r := range q.Collected {
				if !yield(r) {
					return
				}
			}
			return
		}
		feed := q.feed
		q.feed = nil
		prev := q.emit
		defer func() { q.emit = prev }()
		stopped := false
		q.emit = func(r Row) error {
			if !stopped && !yield(r) {
				stopped = true
			}
			if stopped {
				return errStopRows
			}
			return nil
		}
		q.err = nil
		cancelled, err := q.feedAll(ctx.Done(), feed)
		switch {
		case stopped:
		case err != nil:
			q.err = err
		case cancelled:
			q.err = ctx.Err()
		}
	}
}

// Err returns the processing error of the last feed-driven Rows loop
// (nil after a clean drain or a deliberate break).
func (q *Query) Err() error { return q.err }

// Flush closes the current window, emitting its sample.
func (q *Query) Flush() error { return q.op.Flush() }

// Profiler returns the query's cost profiler, nil when profiling is off
// (no Options.Profile and no EXPLAIN ANALYZE prefix).
func (q *Query) Profiler() *profile.Profiler { return q.prof }

// Explain returns the query's EXPLAIN prefix mode: "" (none), "plan"
// (render the compiled plan instead of running) or "analyze" (run with
// cost profiling).
func (q *Query) Explain() string { return q.plan.Query.Explain }

// Stats returns the operator's activity counters.
func (q *Query) Stats() operator.Stats { return q.op.Stats() }
