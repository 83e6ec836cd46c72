// Command gsq runs a GSQL sampling query over a packet feed and prints the
// output rows as CSV.
//
// Usage:
//
//	gsq -query 'SELECT tb, srcIP, sum(len) FROM PKT GROUP BY time/10 as tb, srcIP' -feed steady -duration 5
//	gsq -queryfile q.gsql -feed bursty -seed 7
//	gsq -queryfile q.gsql -replay capture.sopt
//	gsq -queryfile q.gsql -o run/ -artifacts events,metrics,state,trace -stats
//	gsq -queryfile q.gsql -metrics :9090 -pprof
//	gsq -queryfile q.gsql -overload shed-sample -inject 'burst:256@0.5,stall:1ms@0.25' -stats
//	gsq -query 'SELECT tb, srcIP, sum(len) FROM PKT GROUP BY time/1 as tb, srcIP' -partial 4096 -parallel -shards 4
//
// Feeds: bursty (research-center tap), steady (data-center tap), ddos,
// flows, or a binary trace recorded with tracegen via -replay.
//
// The query runs as a low-level node of the two-level engine, draining a
// ring buffer (-ring sets its capacity). -partial N runs it as a
// low-level partial-aggregation node with an N-slot direct-mapped group
// table instead of a full sampling operator (the query must then be plain
// grouping/aggregation). -parallel switches from the single-threaded Run
// to the concurrent RunParallel; -speedup paces the replay (0 = unpaced
// backpressure), and -shards sets the partial node's worker fan-out
// (default: GOMAXPROCS-derived). See docs/PARALLELISM.md for the run-mode
// semantics.
// -stats prints node counters plus
// ring occupancy, drops and overload-controller state.
//
// -overload sets the ring admission policy (drop-tail, the default,
// shed-sample or block) of every ring; -inject
// wraps the feed in deterministic fault injectors
// ("drop:0.01,burst:256@0.5,stall:1ms@0.25,slow:20us", seeded by -seed).
// See docs/ROBUSTNESS.md.
//
// -checkpoint DIR writes crash-safe state snapshots (atomic, checksummed)
// into DIR every -checkpoint-every closed windows (0 = only the final
// snapshot a SIGINT/SIGTERM writes before flushing). -restore resumes
// from the newest valid snapshot in DIR — a killed run restarted with
// -restore produces exactly the rows the uninterrupted run would have,
// after the rows the restored banner reports as already emitted. See
// docs/ROBUSTNESS.md.
//
// Run artifacts are unified under -o DIR: -artifacts selects which files
// to write (default "events,metrics,state"; add "trace" for provenance
// traces, "replay" to record the consumed feed as a replayable capture,
// "profile" for the per-stage cost attribution, and "accuracy" for the
// final estimator accuracy snapshot of ESTIMATE … WITH ERROR queries).
// The directory gets events.jsonl, metrics.prom, state.json, trace.json,
// replay.sopt, PROFILE.json and ACCURACY.json as selected.
//
// -profile runs the query with per-stage cost profiling — the EXPLAIN
// ANALYZE of this engine: exact clocks per batch, cleaning sweep and
// window — and prints the attribution tree (per-node stage self-times,
// row flow, selectivity, group-table occupancy and window-latency
// quantiles) to stderr at exit. Prefixing the query text itself with
// EXPLAIN renders the compiled plan (like -explain), and EXPLAIN ANALYZE
// turns profiling on. The live attribution is also served
// at /debug/profile while -metrics is up.
//
// -metrics serves live Prometheus telemetry and the /debug introspection
// surface (/debug/plan, /debug/state, /debug/profile, /debug/pprof) and keeps serving
// after the feed drains until interrupted (SIGINT or SIGTERM, shut down
// gracefully); -pprof serves the same surface on an ephemeral port when
// -metrics is unset. A SIGINT mid-run cancels the engine's context: open
// windows flush, artifacts are still written, and the run reports how far
// it got. -trace-every sets the 1-in-N provenance sampling rate. See
// docs/OBSERVABILITY.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"streamop/internal/checkpoint"
	"streamop/internal/core"
	"streamop/internal/engine"
	"streamop/internal/overload"
	"streamop/internal/profile"
	"streamop/internal/telemetry"
	"streamop/internal/trace"
	"streamop/internal/tracing"
	"streamop/internal/tuple"
)

// config carries every gsq flag; run takes it whole so tests can exercise
// arbitrary flag combinations without a positional-parameter pileup.
type config struct {
	Query      string  // -query
	QueryFile  string  // -queryfile
	Feed       string  // -feed
	Replay     string  // -replay: binary capture input (overrides -feed)
	Duration   float64 // -duration
	Seed       uint64  // -seed
	Limit      int     // -limit
	Ring       int     // -ring
	Stats      bool    // -stats
	Explain    bool    // -explain
	Metrics    string  // -metrics
	TraceEvery int     // -trace-every
	Pprof      bool    // -pprof
	Partial    int     // -partial: run as a partial-agg node with this many slots
	Parallel   bool    // -parallel: RunParallel instead of Run
	Speedup    float64 // -speedup: pacing factor under -parallel (0 = unpaced)
	Shards     int     // -shards: shard count for the partial node
	Overload   string  // -overload: ring admission policy for every ring
	Inject     string  // -inject: fault-injector spec wrapping the feed
	OutDir     string  // -o: artifact directory
	Artifacts  string  // -artifacts: comma list of artifacts to write under -o
	Checkpoint string  // -checkpoint: snapshot directory (enables checkpointing)
	CkptEvery  int64   // -checkpoint-every: snapshot every N closed windows
	Restore    bool    // -restore: resume from the newest valid snapshot
	Profile    bool    // -profile: per-stage cost profiling (EXPLAIN ANALYZE)
}

func main() {
	var cfg config
	flag.StringVar(&cfg.Query, "query", "", "query text")
	flag.StringVar(&cfg.QueryFile, "queryfile", "", "file containing the query")
	flag.StringVar(&cfg.Feed, "feed", "steady", "synthetic feed: "+trace.FeedNames)
	flag.StringVar(&cfg.Replay, "replay", "", "replay a binary trace file recorded with tracegen (overrides -feed)")
	flag.Float64Var(&cfg.Duration, "duration", 5, "simulated feed duration in seconds")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "random seed")
	flag.IntVar(&cfg.Limit, "limit", 0, "print at most this many rows (0 = all); suppressed rows are still counted")
	flag.BoolVar(&cfg.Stats, "stats", false, "print node statistics and ring occupancy/drops to stderr")
	flag.BoolVar(&cfg.Explain, "explain", false, "print the compiled plan and exit")
	flag.IntVar(&cfg.Ring, "ring", 4096, "ring-buffer capacity feeding the query node")
	flag.StringVar(&cfg.Metrics, "metrics", "", "serve Prometheus telemetry and /debug introspection on this address (e.g. :9090); keeps serving until SIGINT/SIGTERM")
	flag.IntVar(&cfg.TraceEvery, "trace-every", 1000, "with -artifacts trace: trace one in this many source packets (deterministic per -seed)")
	flag.BoolVar(&cfg.Pprof, "pprof", false, "serve /debug/pprof and the introspection surface (on -metrics, or an ephemeral port when -metrics is unset)")
	flag.IntVar(&cfg.Partial, "partial", 0, "run the query as a low-level partial-aggregation node with this many group-table slots (0 = full operator)")
	flag.BoolVar(&cfg.Parallel, "parallel", false, "run with real concurrency (RunParallel); with -partial the node is sharded")
	flag.Float64Var(&cfg.Speedup, "speedup", 0, "with -parallel: pace the replay at this multiple of capture time (0 = unpaced backpressure, no drops)")
	flag.IntVar(&cfg.Shards, "shards", 0, "with -partial -parallel: worker replicas for the partial node (0 = GOMAXPROCS-derived)")
	flag.StringVar(&cfg.Overload, "overload", "", "ring admission policy for every ring: drop-tail|shed-sample|block (default drop-tail)")
	flag.StringVar(&cfg.Inject, "inject", "", `deterministic fault injectors wrapping the feed, e.g. "drop:0.01,burst:256@0.5,stall:1ms@0.25,slow:20us" (seeded by -seed)`)
	flag.StringVar(&cfg.OutDir, "o", "", "write run artifacts into this directory (created if absent); see -artifacts")
	flag.StringVar(&cfg.Artifacts, "artifacts", defaultArtifacts, "with -o: comma list of artifacts to write: events,metrics,state,trace,replay,profile,accuracy")
	flag.StringVar(&cfg.Checkpoint, "checkpoint", "", "write crash-safe state snapshots into this directory (see docs/ROBUSTNESS.md)")
	flag.Int64Var(&cfg.CkptEvery, "checkpoint-every", 1, "with -checkpoint: snapshot every N closed windows (0 = only on SIGINT/SIGTERM)")
	flag.BoolVar(&cfg.Restore, "restore", false, "with -checkpoint: resume from the newest valid snapshot in the directory")
	flag.BoolVar(&cfg.Profile, "profile", false, "per-stage cost profiling (EXPLAIN ANALYZE): print the attribution tree to stderr at exit; with -o, add 'profile' to -artifacts for PROFILE.json")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "gsq:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	query := cfg.Query
	if cfg.QueryFile != "" {
		b, err := os.ReadFile(cfg.QueryFile)
		if err != nil {
			return err
		}
		query = string(b)
	}
	if strings.TrimSpace(query) == "" {
		return fmt.Errorf("no query given (use -query or -queryfile)")
	}

	q, err := core.Compile(query, core.Options{Seed: cfg.Seed})
	if err != nil {
		return err
	}
	policy, err := overload.ParsePolicy(cfg.Overload)
	if err != nil {
		return err
	}
	// The query text's EXPLAIN prefix maps onto the corresponding flags:
	// bare EXPLAIN renders the plan (-explain), EXPLAIN ANALYZE runs with
	// cost profiling (-profile).
	switch q.Explain() {
	case "plan":
		cfg.Explain = true
	case "analyze":
		cfg.Profile = true
	}
	if cfg.Explain {
		fmt.Print(q.Plan().Describe())
		return nil
	}

	var faults *overload.Faults
	if cfg.Inject != "" {
		faults, err = overload.ParseFaults(cfg.Inject, cfg.Seed)
		if err != nil {
			return err
		}
	}
	art, err := resolveArtifacts(cfg)
	if err != nil {
		return err
	}
	if art.Profile != "" {
		// Selecting the profile artifact implies profiling.
		cfg.Profile = true
	}

	feed, err := openFeed(cfg.Feed, cfg.Replay, cfg.Duration, cfg.Seed)
	if err != nil {
		return err
	}

	// A SIGINT or SIGTERM anywhere in the run cancels ctx: the engine
	// stops admitting packets, flushes open windows, and run falls
	// through to write artifacts; the post-drain serving phase below
	// exits promptly too.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Telemetry is opt-in: without -metrics, -pprof or telemetry
	// artifacts the engine runs an uninstrumented (nil-collector) query.
	metricsAddr := cfg.Metrics
	if cfg.Pprof && metricsAddr == "" {
		metricsAddr = "127.0.0.1:0"
	}
	var col *telemetry.Collector
	if art.Events != "" {
		f, err := os.Create(art.Events)
		if err != nil {
			return err
		}
		defer f.Close()
		out := bufio.NewWriter(f)
		col = telemetry.NewWithEvents(out)
	} else if metricsAddr != "" || art.Metrics != "" || art.State != "" || art.Accuracy != "" {
		col = telemetry.New()
	}
	var srv *http.Server
	if metricsAddr != "" {
		s, addr, err := col.Serve(metricsAddr)
		if err != nil {
			return err
		}
		srv = s
		fmt.Fprintf(os.Stderr, "gsq: telemetry at http://%s/metrics, introspection at /debug/{plan,state,profile,accuracy,pprof}\n", addr)
	} else if art.State != "" || art.Accuracy != "" {
		// The state and accuracy artifacts snapshot /debug/{state,accuracy}
		// at exit; building the handler flips DebugActive so operators
		// publish their boundary snapshots even though nothing serves HTTP.
		_ = col.Handler()
	}

	e, err := engine.New(cfg.Ring)
	if err != nil {
		return err
	}
	if col != nil {
		e.SetCollector(col)
	}
	e.SetOverload(overload.Config{Policy: policy, Seed: cfg.Seed})
	if faults != nil {
		e.SetFaults(faults)
	}
	var tr *tracing.Tracer
	if art.Trace != "" {
		tr = tracing.New(tracing.Config{Every: cfg.TraceEvery, Seed: cfg.Seed})
		tr.SetCollector(col)
		e.SetTracer(tr)
	}
	var node *engine.Node
	var pn *engine.PartialNode
	if cfg.Partial > 0 {
		pn, err = e.AddLowLevelPartialAgg("query", q.Plan(), cfg.Partial)
		if err != nil {
			return err
		}
		if cfg.Shards > 0 {
			pn.SetShards(cfg.Shards)
		}
		node = pn.Base()
	} else {
		if cfg.Shards > 0 {
			return fmt.Errorf("-shards only applies to a partial-aggregation node (add -partial)")
		}
		node, err = e.AddLowLevel("query", q.Plan())
		if err != nil {
			return err
		}
	}
	var prof *profile.Profiler
	if cfg.Profile {
		prof = profile.New()
		e.SetProfiler(prof)
	}
	if cfg.Checkpoint != "" {
		if err := e.SetCheckpoint(engine.CheckpointConfig{
			Dir:          cfg.Checkpoint,
			EveryWindows: cfg.CkptEvery,
		}); err != nil {
			return err
		}
	} else if cfg.Restore {
		return fmt.Errorf("-restore needs -checkpoint DIR")
	}
	if cfg.Restore {
		info, err := e.Restore()
		switch {
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			fmt.Fprintln(os.Stderr, "gsq: no valid snapshot found; starting fresh")
		case err != nil:
			return err
		default:
			var rows int64
			for _, n := range info.Nodes {
				if n.Name == "query" {
					rows = n.TuplesOut
				}
			}
			// The banner's rows count is what CI's kill-and-resume splice
			// keys on: rows already emitted before the snapshot.
			fmt.Fprintf(os.Stderr, "gsq: restored seq=%d packets=%d windows=%d rows=%d from %s\n",
				info.Seq, info.Packets, info.Windows, rows, info.Path)
		}
	}

	var printed, suppressed int64
	node.Subscribe(func(row tuple.Tuple) error {
		if cfg.Limit > 0 && printed >= int64(cfg.Limit) {
			suppressed++
			return nil
		}
		printed++
		fmt.Println(row.String())
		return nil
	})

	// The replay artifact records the input feed (before fault injection)
	// as a binary capture: replaying it with the same -seed and -inject
	// reproduces the run.
	var rec *trace.Writer
	var recFile *os.File
	if art.Replay != "" {
		recFile, err = os.Create(art.Replay)
		if err != nil {
			return err
		}
		rec, err = trace.NewWriter(recFile)
		if err != nil {
			recFile.Close()
			return err
		}
		feed = recordFeed{feed: feed, w: rec}
	}

	fmt.Println(strings.Join(q.Columns(), ","))
	if cfg.Parallel {
		if tr != nil {
			fmt.Fprintln(os.Stderr, "gsq: note: provenance tracing is ignored under -parallel (see docs/PARALLELISM.md)")
		}
		err = e.RunParallelContext(ctx, feed, cfg.Speedup)
	} else {
		err = e.RunContext(ctx, feed)
	}
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		return err
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "gsq: interrupted; open windows flushed, writing artifacts")
	}
	if err := writeRunArtifacts(art, rec, recFile, col, tr, prof); err != nil {
		return err
	}
	if prof != nil {
		fmt.Fprint(os.Stderr, prof.Report().Render())
	}

	if cfg.Stats {
		if pn != nil {
			st := node.Stats()
			shards := 1
			if cfg.Parallel {
				shards = pn.Shards()
			}
			fmt.Fprintf(os.Stderr, "tuples in=%d out=%d evictions=%d shards=%d busy=%s\n",
				st.TuplesIn, st.TuplesOut, pn.Evictions(), shards, st.Busy)
		} else {
			s := node.Stats().Operator
			fmt.Fprintf(os.Stderr, "tuples in=%d accepted=%d out=%d groups=%d evicted=%d cleanings=%d windows=%d\n",
				s.TuplesIn, s.TuplesAccepted, s.TuplesOut, s.GroupsCreated, s.GroupsEvicted, s.Cleanings, s.Windows)
		}
		fmt.Fprintf(os.Stderr, "ring cap=%d peak=%d drops=%d\n",
			e.RingCap(), e.RingPeak(), e.Drops())
		if cfg.Limit > 0 {
			fmt.Fprintf(os.Stderr, "rows printed=%d suppressed=%d (total %d)\n",
				printed, suppressed, printed+suppressed)
		}
		if tr != nil {
			sum := tr.Summary()
			fmt.Fprintf(os.Stderr, "traces started=%d finished=%d spans=%d dispositions=%v\n",
				sum.Started, sum.Finished, sum.Spans, sum.Dispositions)
		}
		for _, s := range e.Overload() {
			fmt.Fprintf(os.Stderr, "overload %s/%s policy=%s state=%s offered=%d admitted=%d shed=%d dropped=%d peak=%d admit_p=%.3f\n",
				s.Node, s.Ring, s.Policy, s.State, s.Offered, s.Admitted, s.Shed, s.Dropped, s.PeakOcc, s.AdmitP)
		}
		if faults != nil {
			fmt.Fprintf(os.Stderr, "inject %s: dropped=%d bursts=%d stalls=%d\n",
				faults, faults.Dropped(), faults.Bursts(), faults.Stalls())
		}
	}

	if srv != nil {
		if (cfg.Metrics != "" || cfg.Pprof) && !interrupted {
			fmt.Fprintln(os.Stderr, "gsq: feed drained; still serving telemetry, SIGINT/SIGTERM to exit")
			<-ctx.Done()
		}
		sctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("shutting down telemetry server: %w", err)
		}
	}
	return nil
}

// defaultArtifacts is what -o writes when -artifacts is not given; the
// trace and replay artifacts are opt-in (tracing changes what the run
// records, and replay captures can be large).
const defaultArtifacts = "events,metrics,state"

// artifactPaths resolves where each run artifact lands under -o DIR per
// the -artifacts selection. An empty path disables the artifact.
type artifactPaths struct {
	Events   string // JSONL telemetry event stream
	Metrics  string // final Prometheus exposition
	State    string // final /debug/state snapshot
	Trace    string // Chrome trace-event provenance JSON
	Replay   string // binary capture of the input feed
	Profile  string // final per-stage cost attribution (PROFILE.json)
	Accuracy string // final estimator accuracy snapshot (ACCURACY.json)
}

func resolveArtifacts(cfg config) (artifactPaths, error) {
	var a artifactPaths
	if cfg.OutDir == "" {
		return a, nil
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return a, err
	}
	arts := cfg.Artifacts
	if arts == "" {
		arts = defaultArtifacts
	}
	for _, name := range strings.Split(arts, ",") {
		switch strings.TrimSpace(name) {
		case "events":
			a.Events = filepath.Join(cfg.OutDir, "events.jsonl")
		case "metrics":
			a.Metrics = filepath.Join(cfg.OutDir, "metrics.prom")
		case "state":
			a.State = filepath.Join(cfg.OutDir, "state.json")
		case "trace":
			a.Trace = filepath.Join(cfg.OutDir, "trace.json")
		case "replay":
			a.Replay = filepath.Join(cfg.OutDir, "replay.sopt")
		case "profile":
			a.Profile = filepath.Join(cfg.OutDir, "PROFILE.json")
		case "accuracy":
			a.Accuracy = filepath.Join(cfg.OutDir, "ACCURACY.json")
		case "":
		default:
			return a, fmt.Errorf("unknown artifact %q (valid: events,metrics,state,trace,replay,profile,accuracy)", strings.TrimSpace(name))
		}
	}
	return a, nil
}

// writeRunArtifacts finalizes every selected artifact after the engine
// returns. It runs on the one exit path both clean completion and a
// SIGINT/SIGTERM cancellation share, so an interrupted run always leaves
// the same files behind as a drained one (main_test.go's SIGTERM test
// holds this).
func writeRunArtifacts(art artifactPaths, rec *trace.Writer, recFile *os.File, col *telemetry.Collector, tr *tracing.Tracer, prof *profile.Profiler) error {
	if rec != nil {
		if err := rec.Flush(); err != nil {
			recFile.Close()
			return fmt.Errorf("writing replay capture: %w", err)
		}
		if err := recFile.Close(); err != nil {
			return fmt.Errorf("writing replay capture: %w", err)
		}
	}
	if err := col.Close(); err != nil {
		return fmt.Errorf("flushing events: %w", err)
	}
	if tr != nil {
		if err := writeTrace(art.Trace, tr); err != nil {
			return err
		}
	}
	if art.Metrics != "" {
		if err := writeFileWith(art.Metrics, col.WritePrometheus); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	if art.State != "" {
		state := col.DebugData("state")
		if err := writeFileWith(art.State, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(state)
		}); err != nil {
			return fmt.Errorf("writing state: %w", err)
		}
	}
	if art.Profile != "" {
		rep := prof.Report()
		if err := writeFileWith(art.Profile, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}); err != nil {
			return fmt.Errorf("writing profile: %w", err)
		}
	}
	if art.Accuracy != "" {
		acc := col.DebugData("accuracy")
		if err := writeFileWith(art.Accuracy, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(acc)
		}); err != nil {
			return fmt.Errorf("writing accuracy: %w", err)
		}
	}
	return nil
}

// recordFeed forwards a feed while appending every packet to a binary
// capture. A write error is sticky in the buffered writer and surfaces at
// the post-run Flush.
type recordFeed struct {
	feed trace.Feed
	w    *trace.Writer
}

func (f recordFeed) Next() (trace.Packet, bool) {
	p, ok := f.feed.Next()
	if ok {
		_ = f.w.Write(p)
	}
	return p, ok
}

// writeFileWith creates path and streams fill's output into it through a
// buffered writer.
func writeFileWith(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace renders the tracer's buffered spans as Chrome trace-event
// JSON at path.
func writeTrace(path string, tr *tracing.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := tr.WriteChromeTrace(w); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

func openFeed(kind, replayFile string, duration float64, seed uint64) (trace.Feed, error) {
	if replayFile != "" {
		f, err := os.Open(replayFile)
		if err != nil {
			return nil, err
		}
		// The process exits when done; the descriptor is released then.
		return trace.NewReader(f)
	}
	return trace.Open(kind, seed, duration)
}
