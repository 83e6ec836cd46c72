// Command gsqd is the standing-query server: one long-lived engine
// session pumping a shared packet feed, with GSQL queries installed and
// uninstalled over HTTP while packets keep flowing — the paper's
// Gigascope deployment shape (many concurrent queries multiplexed onto
// one tap through the two-level low/high split) served as a daemon.
//
// Usage:
//
//	gsqd -addr :8080 -feed bursty -speedup 50
//	curl -X POST localhost:8080/queries -d '{
//	  "name": "heavy", "via": "SELECT time, srcIP, len, uts FROM PKT",
//	  "query": "SELECT tb, srcIP, sum(len) FROM tap GROUP BY time/1 as tb, srcIP"}'
//	curl -N localhost:8080/queries/heavy/rows       # SSE row stream
//	curl localhost:8080/queries | jq                # EXPLAIN per query
//	curl -X DELETE localhost:8080/queries/heavy
//
// Routes:
//
//	GET    /healthz             liveness + session state
//	GET    /queries             installed queries (plan EXPLAIN included)
//	POST   /queries             install a standing query (JSON body)
//	GET    /queries/{name}      one query's status
//	DELETE /queries/{name}      uninstall
//	GET    /queries/{name}/rows SSE stream of the query's output rows
//	/metrics, /metrics.json, /debug/{plan,state,profile,accuracy,pprof}
//	                            telemetry surface, same listener
//
// Install payload: {"name": ..., "query": ..., "via": ..., "buffer": N,
// "block": bool, "seed": N, "quota": {...}}. A query whose FROM is PKT
// runs as its own low-level node; any other FROM names a shared
// low-level tap, created from "via" (a query reading PKT) on first use
// and refcounted across every subscriber — install a thousand tenants
// over one tap and the packet stream is still scanned once. The optional
// "quota" object is the tenant's admission budget and subscriber-lag
// policy (docs/ROBUSTNESS.md). See docs/SERVER.md.
//
// The feed replays one of the synthetic taps (-feed, -duration, -seed)
// paced by -speedup (0 = as fast as possible), looping forever by
// default (-loop=false drains once and keeps serving). SIGINT/SIGTERM
// drains the session gracefully — open windows flush to their
// subscribers — then stops the listener.
//
// With -state-dir the session is durable: the engine snapshots the
// standing-query registry and every operator's state at pump boundaries,
// and a restarting gsqd (clean exit or kill -9) re-installs every query
// and resumes its window state from the newest valid snapshot. Recovery
// is bit-identical when the feed flags (-feed/-seed/-duration) are
// unchanged, because the synthetic feeds replay deterministically and
// the engine fast-forwards past the packets the snapshot already
// absorbed. SSE subscribers reconnect; they are connections, not state.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"streamop/internal/checkpoint"
	"streamop/internal/engine"
	"streamop/internal/overload"
	"streamop/internal/profile"
	"streamop/internal/telemetry"
	"streamop/internal/trace"
)

// config carries every gsqd flag; run takes it whole so tests can build
// servers without flag plumbing.
type config struct {
	Addr     string  // -addr: HTTP listen address
	Feed     string  // -feed: bursty|steady|ddos|flows
	Duration float64 // -duration: simulated seconds per feed lap
	Seed     uint64  // -seed
	Ring     int     // -ring: source ring capacity
	Speedup  float64 // -speedup: pacing factor (0 = unpaced)
	Loop     bool    // -loop: regenerate the feed when it drains
	Buffer   int     // -buffer: default per-subscription row buffer

	// StateDir makes the session durable: snapshots land here and a
	// restart recovers the registry and operator state from the newest
	// valid one. Empty = ephemeral session (the old behavior).
	StateDir string // -state-dir
	// CheckpointEvery is the snapshot cadence in closed windows (the
	// registry additionally snapshots whenever an install or uninstall
	// lands). CheckpointKeep bounds the on-disk history.
	CheckpointEvery int64 // -checkpoint-every
	CheckpointKeep  int   // -checkpoint-keep
}

func main() {
	var cfg config
	flag.StringVar(&cfg.Addr, "addr", ":8080", "HTTP listen address")
	flag.StringVar(&cfg.Feed, "feed", "bursty", "synthetic feed: "+trace.FeedNames)
	flag.Float64Var(&cfg.Duration, "duration", 60, "simulated feed duration in seconds (per lap with -loop)")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "random seed")
	flag.IntVar(&cfg.Ring, "ring", 4096, "source ring-buffer capacity")
	flag.Float64Var(&cfg.Speedup, "speedup", 1, "pace the feed at this multiple of capture time (0 = as fast as possible)")
	flag.BoolVar(&cfg.Loop, "loop", true, "regenerate the feed when it drains, so the tap never ends")
	flag.IntVar(&cfg.Buffer, "buffer", 256, "default per-subscription row buffer (overridable per install)")
	flag.StringVar(&cfg.StateDir, "state-dir", "", "durable-session snapshot directory (empty = ephemeral session)")
	flag.Int64Var(&cfg.CheckpointEvery, "checkpoint-every", 4, "snapshot every N closed windows (with -state-dir)")
	flag.IntVar(&cfg.CheckpointKeep, "checkpoint-keep", 8, "snapshots retained on disk (with -state-dir)")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "gsqd:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sv, err := newServer(cfg)
	if err != nil {
		return err
	}
	if err := sv.start(context.Background()); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: sv.mux, ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	// The smoke script and humans both key on this line for the bound
	// address (-addr :0 picks an ephemeral port).
	fmt.Fprintf(os.Stderr, "gsqd: listening on http://%s (feed=%s speedup=%g)\n", ln.Addr(), cfg.Feed, cfg.Speedup)

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "gsqd: signal received; draining session")
	case err := <-errCh:
		return fmt.Errorf("http server: %w", err)
	}
	// Drain first: the pump flushes open windows to subscribers and
	// closes their channels, which ends every live SSE stream, so the
	// listener shutdown below does not wait on stuck streams.
	if err := sv.e.Drain(); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "gsqd: drain:", err)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutting down: %w", err)
	}
	fmt.Fprintln(os.Stderr, "gsqd: drained; bye")
	return nil
}

// server is the HTTP frontend over one engine session. It is built
// separately from run so the httptest suite can drive the mux directly.
type server struct {
	cfg  config
	e    *engine.Engine
	col  *telemetry.Collector
	feed trace.Feed
	mux  *http.ServeMux
	// restored describes what a durable restart recovered (nil on a
	// fresh start or without -state-dir); surfaced in /healthz.
	restored *engine.RestoreInfo
}

func newServer(cfg config) (*server, error) {
	if cfg.Ring <= 0 {
		cfg.Ring = 4096
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 256
	}
	e, err := engine.New(cfg.Ring)
	if err != nil {
		return nil, err
	}
	col := telemetry.New()
	if err := e.SetCollector(col); err != nil {
		return nil, err
	}
	// Always on: a few clock reads per batch, window and cleaning sweep,
	// and /debug/profile says where each installed query's time goes.
	if err := e.SetProfiler(profile.New()); err != nil {
		return nil, err
	}
	sv := &server{cfg: cfg, e: e, col: col}
	if cfg.StateDir != "" {
		if err := e.SetCheckpoint(engine.CheckpointConfig{
			Dir:          cfg.StateDir,
			EveryWindows: cfg.CheckpointEvery,
			Keep:         cfg.CheckpointKeep,
		}); err != nil {
			return nil, fmt.Errorf("state dir: %w", err)
		}
		info, err := e.Restore()
		switch {
		case err == nil:
			sv.restored = info
			fmt.Fprintf(os.Stderr, "gsqd: recovered %d queries, %d taps, %d packets from %s\n",
				len(info.Queries), len(info.Taps), info.Packets, info.Path)
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			// Empty state dir: a fresh durable session.
		default:
			return nil, fmt.Errorf("restoring session state: %w", err)
		}
	}
	feed, err := openFeed(cfg)
	if err != nil {
		return nil, err
	}
	sv.feed = feed
	sv.routes()
	return sv, nil
}

// start begins pumping the feed. Split from newServer so tests can
// install queries against the idle engine first.
func (s *server) start(ctx context.Context) error {
	return s.e.StartWith(ctx, s.feed, engine.StartOptions{Speedup: s.cfg.Speedup})
}

func (s *server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /queries", s.handleList)
	mux.HandleFunc("POST /queries", s.handleInstall)
	mux.HandleFunc("GET /queries/{name}", s.handleGet)
	mux.HandleFunc("DELETE /queries/{name}", s.handleUninstall)
	mux.HandleFunc("GET /queries/{name}/rows", s.handleRows)
	// Everything else — /metrics, /metrics.json, /debug/* and the index —
	// is the collector's standard introspection surface on this listener.
	mux.Handle("/", s.col.Handler())
	s.mux = mux
}

// installRequest is the POST /queries payload.
type installRequest struct {
	Name string `json:"name"`
	// Query is the GSQL text of the standing query. FROM PKT runs it as
	// its own low-level node; any other FROM names a shared tap.
	Query string `json:"query"`
	// Via is the GSQL text of the shared low-level tap (reading PKT) the
	// query's FROM refers to; required on the tap's first install,
	// optional (but conflict-checked) afterwards.
	Via string `json:"via,omitempty"`
	// Buffer is this query's per-subscription row buffer; 0 uses the
	// server's -buffer default.
	Buffer int `json:"buffer,omitempty"`
	// Block switches the subscriber overflow policy from drop-oldest to
	// blocking backpressure (one slow subscriber then stalls the shared
	// pump — tenant beware).
	Block bool `json:"block,omitempty"`
	// Seed seeds the query's stateful functions (sampling operators).
	Seed uint64 `json:"seed,omitempty"`
	// Quota is the tenant's admission budget and subscriber-lag policy;
	// omitted leaves the query unlimited. See docs/ROBUSTNESS.md.
	Quota *quotaRequest `json:"quota,omitempty"`
}

// quotaRequest is the "quota" object of an install payload, mirroring
// overload.Quota field for field.
type quotaRequest struct {
	// RowsPerSec / BytesPerSec budget admitted delivery per second of
	// stream time; <= 0 (or omitted) leaves that axis unlimited.
	RowsPerSec  float64 `json:"rows_per_sec,omitempty"`
	BytesPerSec float64 `json:"bytes_per_sec,omitempty"`
	// BurstSec is the bucket depth in seconds of budget (default 1).
	BurstSec float64 `json:"burst_sec,omitempty"`
	// WarnLag / DetachAfter drive the subscriber-lag ladder: warn after
	// this many lost rows, force-detach the subscriber after that many.
	WarnLag     uint64 `json:"warn_lag,omitempty"`
	DetachAfter uint64 `json:"detach_after,omitempty"`
}

func (q *quotaRequest) toQuota() overload.Quota {
	if q == nil {
		return overload.Quota{}
	}
	return overload.Quota{
		Rows:        q.RowsPerSec,
		Bytes:       q.BytesPerSec,
		BurstSec:    q.BurstSec,
		WarnLag:     q.WarnLag,
		DetachAfter: q.DetachAfter,
	}
}

// queryInfo is one installed query in GET /queries responses.
type queryInfo struct {
	Name        string   `json:"name"`
	Via         string   `json:"via,omitempty"`
	Columns     []string `json:"columns"`
	RowsOut     int64    `json:"rows_out"`
	Dropped     uint64   `json:"dropped"`
	Subscribers int      `json:"subscribers"`
	Failed      string   `json:"failed,omitempty"`
	Explain     string   `json:"explain"`
	// Quota is present when the query carries an admission budget or lag
	// policy — the same shape /debug/state serves under "quotas".
	Quota *overload.QuotaSnapshot `json:"quota,omitempty"`
}

func info(h *engine.QueryHandle) queryInfo {
	qi := queryInfo{
		Name:        h.Name(),
		Via:         h.Via(),
		Columns:     h.Columns(),
		RowsOut:     h.RowsOut(),
		Dropped:     h.Dropped(),
		Subscribers: h.Subscribers(),
		Explain:     h.Explain(),
	}
	if err := h.Err(); err != nil {
		qi.Failed = err.Error()
	}
	if q := h.Quota(); q.Enabled() || q.LagPolicy() {
		qs := h.QuotaState()
		qi.Quota = &qs
	}
	return qi
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{
		"status":         "ok",
		"session_active": s.e.SessionActive(),
		"queries":        len(s.e.Installed()),
		"taps":           s.e.TapCount(),
		"packets":        s.e.Packets(),
	}
	if s.cfg.StateDir != "" {
		body["state_dir"] = s.cfg.StateDir
		if s.restored != nil {
			body["recovered_queries"] = s.restored.Queries
			body["recovered_packets"] = s.restored.Packets
		}
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	handles := s.e.Installed()
	out := make([]queryInfo, 0, len(handles))
	for _, h := range handles {
		out = append(out, info(h))
	}
	writeJSON(w, http.StatusOK, map[string]any{"queries": out})
}

func (s *server) handleInstall(w http.ResponseWriter, r *http.Request) {
	var req installRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding install request: %w", err))
		return
	}
	if req.Name == "" || req.Query == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("install request needs \"name\" and \"query\""))
		return
	}
	buffer := req.Buffer
	if buffer <= 0 {
		buffer = s.cfg.Buffer
	}
	h, err := s.e.Install(req.Name, req.Query, engine.InstallOptions{
		Via:    req.Via,
		Seed:   req.Seed,
		Buffer: buffer,
		Block:  req.Block,
		Quota:  req.Quota.toQuota(),
	})
	if err != nil {
		// A name collision is the caller's state conflict (409); a
		// draining session means the server as a whole is going away
		// (503); anything else — GSQL parse/analyze errors, a bad quota,
		// a mismatched via — is a bad request, with the engine's error
		// (including the parser's position message) in the JSON body.
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, engine.ErrDuplicateQuery):
			status = http.StatusConflict
		case errors.Is(err, engine.ErrSessionClosed):
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusCreated, info(h))
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	h := s.e.Lookup(r.PathValue("name"))
	if h == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no query named %q", r.PathValue("name")))
		return
	}
	writeJSON(w, http.StatusOK, info(h))
}

func (s *server) handleUninstall(w http.ResponseWriter, r *http.Request) {
	// No Lookup pre-check: the engine's sentinel is authoritative and
	// atomic with the removal, where a check-then-act would race a
	// concurrent uninstall.
	if err := s.e.Uninstall(r.PathValue("name")); err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, engine.ErrUnknownQuery):
			status = http.StatusNotFound
		case errors.Is(err, engine.ErrSessionClosed):
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// openFeed builds the server's packet feed: one of the synthetic taps,
// looped so the stream never ends (unless -loop=false).
func openFeed(cfg config) (trace.Feed, error) {
	gen := func() (trace.Feed, error) { return trace.Open(cfg.Feed, cfg.Seed, cfg.Duration) }
	first, err := gen()
	if err != nil {
		return nil, err
	}
	if !cfg.Loop {
		return first, nil
	}
	return &loopFeed{gen: gen, cur: first}, nil
}

// loopFeed replays a regenerating feed forever: each time the inner feed
// drains it is rebuilt, with packet timestamps offset past the previous
// lap so simulated time keeps increasing (windows keep closing) across
// laps.
type loopFeed struct {
	gen    func() (trace.Feed, error)
	cur    trace.Feed
	offset uint64
	last   uint64
}

func (f *loopFeed) Next() (trace.Packet, bool) {
	for {
		if f.cur == nil {
			cur, err := f.gen()
			if err != nil {
				return trace.Packet{}, false
			}
			f.cur = cur
			f.offset = f.last + uint64(time.Millisecond)
		}
		p, ok := f.cur.Next()
		if !ok {
			f.cur = nil
			continue
		}
		p.Time += f.offset
		f.last = p.Time
		return p, true
	}
}
