package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamop/internal/checkpoint"
	"streamop/internal/gsql"
	"streamop/internal/overload"
	"streamop/internal/sfunlib"
	"streamop/internal/trace"
	"streamop/internal/tuple"
)

// Standing-query sessions: the long-lived form of the engine.
//
// The one-shot Run drains a finite feed through a fixed node tree and
// returns. A session turns the same serial loop over the same pump
// (pump.go) into a resident service: Start begins pumping the shared feed
// on a background goroutine, Install and Uninstall add and remove named
// GSQL queries while packets keep flowing, and Drain flushes the open
// windows and stops. What the session adds is what its pump reports: hold,
// when a command waits for the next drained-ring boundary, and end, on
// Drain. This is the paper's Gigascope deployment shape — one packet tap,
// many concurrent GSQL queries sharing the two-level low/high split —
// served as an API.
//
// Sharing. A query whose FROM names the packet schema (PKT) runs as its
// own low-level node. A query whose FROM names anything else reads a
// *tap*: a shared low-level node installed once (from InstallOptions.Via)
// and refcounted across every subscriber query, so N queries over the
// same early data reduction cost one pass over the packets plus N passes
// over the (much smaller) reduced stream. Uninstalling the last
// subscriber tears the tap down. That is exactly the low-level
// deduplication the paper's two-level split exists to enable.
//
// Concurrency model. The pump is the single goroutine that touches
// operator state, so no operator ever needs a lock. Install and Uninstall
// from other goroutines post commands that the pump applies at a batch
// boundary — the same all-nodes-settled point the checkpointer uses — and
// block until the pump replies. While the engine is idle (no session, no
// run) they apply directly on the caller's goroutine. The topology
// structures (node lists, taps, handles) are guarded by topoMu only for
// the benefit of concurrent readers (/debug sources, GET /queries); the
// pump itself is always the sole writer while running.
//
// Delivery. Each installed query fans its output rows to any number of
// Subscriptions (bounded queues of rows or of shared column frames, with
// per-query buffer size and overflow policy from InstallOptions) and an
// optional synchronous OnRow callback.
// A subscriber that falls behind under the default drop policy loses the
// oldest buffered rows — counted, never blocking the pump; under Block
// the pump waits (backpressure, one slow subscriber stalls the tap). An
// OnRow error fails only that query (recorded like a contained panic);
// the session and its other queries keep running.

// ErrSessionClosed is returned by Install/Uninstall/session accessors
// when the session ended before the request could be applied.
var ErrSessionClosed = errors.New("engine: session ended")

// ErrDuplicateQuery is wrapped by Install when the name is already taken
// (gsqd maps it to 409 Conflict).
var ErrDuplicateQuery = errors.New("query already installed")

// ErrUnknownQuery is wrapped by Uninstall when no query has the name
// (gsqd maps it to 404 Not Found).
var ErrUnknownQuery = errors.New("no such query")

// run-state values for Engine.runState.
const (
	stateIdle int32 = iota
	stateRunning
)

// beginRun marks the engine busy; exactly one run or session may be
// active at a time.
func (e *Engine) beginRun() error {
	if !e.runState.CompareAndSwap(stateIdle, stateRunning) {
		return fmt.Errorf("engine: a run or session is already active")
	}
	return nil
}

func (e *Engine) endRun() { e.runState.Store(stateIdle) }

// setterGuard rejects reconfiguration while a run or session is active.
// The Set* methods were previously silent races when called mid-run; now
// they fail fast instead.
func (e *Engine) setterGuard(what string) error {
	if e.runState.Load() != stateIdle {
		return fmt.Errorf("engine: %s: cannot reconfigure while a run or session is active", what)
	}
	return nil
}

// sessionFields is the engine's session state, embedded in Engine.
type sessionFields struct {
	// topoMu guards the topology (low/high/names), taps and
	// handles for cross-goroutine readers. The running pump is the sole
	// writer (idle installs write under the same lock).
	topoMu   sync.RWMutex
	runState atomic.Int32

	sessMu   sync.Mutex // guards sess/lastSess
	sess     *session
	lastSess *session

	handles map[string]*QueryHandle
	taps    map[string]*tap

	// nextSeq numbers installs so a durable snapshot can replay them in
	// the original order (tap creation precedes its subscribers).
	// Guarded by topoMu like the maps.
	nextSeq uint64

	installs   atomic.Int64
	uninstalls atomic.Int64
}

// tap is one shared low-level node plus its subscriber refcount. The
// creating install's Via text and seed ride along so a durable session
// can recreate the tap from its snapshot (see durable.go).
type tap struct {
	name   string // node name == the FROM name subscriber queries use
	node   *Node
	key    string // canonical plan rendering, for Via conflict detection
	refs   int
	viaSrc string
	seed   uint64
}

// StartOptions configures a session.
type StartOptions struct {
	// Speedup paces the feed against the wall clock: packets are admitted
	// no earlier than (packet time - first packet time) / Speedup after
	// the first packet. 1 replays in real time, 100 replays a 100-second
	// capture in one second. <= 0 disables pacing (the pump runs as fast
	// as the feed produces).
	Speedup float64
}

// InstallOptions configures one standing query.
type InstallOptions struct {
	// Via is the GSQL text of the shared low-level tap the query reads,
	// itself reading PKT. The query's FROM clause names the tap; the
	// first install under a given FROM name creates it, later installs
	// reuse it (their Via, when non-empty, must compile to the same
	// plan). Empty Via requires either FROM PKT (the query runs as its
	// own low-level node) or a tap some earlier install already created.
	Via string
	// Seed seeds the query's (and a newly created tap's) stateful
	// functions.
	Seed uint64
	// Buffer bounds the rows queued on each Subscription, of either form
	// (default 256): a row subscription's channel holds that many rows, and
	// a frame subscription's frames are cut to at most min(Buffer, 512)
	// rows so that the rows queued never exceed it either.
	Buffer int
	// Block selects the overflow policy when a subscriber's buffer is
	// full: false (default) drops the oldest buffered row and counts it;
	// true blocks the pump until the subscriber catches up
	// (backpressure — one slow subscriber stalls the shared feed).
	Block bool
	// OnRow, when non-nil, receives every output row synchronously on
	// the pump goroutine. An error return fails this query only (see
	// Engine.Failures); other queries and the session keep running.
	// The row is lent: OnRow's for the length of the call only (copy what
	// is kept; see Node.Subscribe). OnRow is not persistable: a durable
	// session restores the query without it (see Engine.Restore).
	OnRow func(tuple.Tuple) error
	// Quota is the query's per-tenant delivery budget and subscriber-lag
	// policy; the zero value leaves the query unlimited. See
	// overload.Quota and docs/ROBUSTNESS.md.
	Quota overload.Quota
}

// session is one live Start..Drain lifecycle.
type session struct {
	e *Engine

	cmds    chan *sessCmd
	drainCh chan struct{}
	drainMu sync.Once
	done    chan struct{}
	err     error // set before done closes

	pendingFails atomic.Int32
}

type sessCmd struct {
	fn   func() (any, error)
	resp chan cmdResult
}

type cmdResult struct {
	v   any
	err error
}

// Start begins a session: the engine pumps feed through whatever queries
// are (and become) installed, on a background goroutine, until the feed
// drains, ctx is cancelled, or Drain is called. Unpaced; see StartWith.
func (e *Engine) Start(ctx context.Context, feed trace.Feed) error {
	return e.StartWith(ctx, feed, StartOptions{})
}

// StartWith is Start with options.
func (e *Engine) StartWith(ctx context.Context, feed trace.Feed, opts StartOptions) error {
	if feed == nil {
		return fmt.Errorf("engine: session needs a feed")
	}
	if err := e.beginRun(); err != nil {
		return err
	}
	s := &session{
		e:       e,
		cmds:    make(chan *sessCmd, 64),
		drainCh: make(chan struct{}),
		done:    make(chan struct{}),
	}
	e.sessMu.Lock()
	e.sess = s
	e.sessMu.Unlock()
	go func() {
		s.finish(e.runSerial(ctx, feed, s, opts.Speedup))
	}()
	return nil
}

// finish closes out the session: subscriptions end, the engine returns to
// idle, and pending commands are refused.
func (s *session) finish(err error) {
	e := s.e
	e.topoMu.Lock()
	for _, h := range e.handles {
		h.closeSubs(false)
	}
	e.topoMu.Unlock()
	// The engine goes idle in the same step that retires the session: an
	// Install that no longer finds it must find an engine it can change
	// directly, not one that still looks busy.
	e.sessMu.Lock()
	s.err = err
	e.sess = nil
	e.lastSess = s
	e.endRun()
	e.sessMu.Unlock()
	close(s.done)
	for {
		select {
		case c := <-s.cmds:
			c.resp <- cmdResult{err: ErrSessionClosed}
		default:
			return
		}
	}
}

// Drain gracefully ends the session: the pump stops taking packets,
// every node flushes its open windows bottom-up, subscriptions close,
// and Drain returns the session's error (nil after a clean drain). It
// also reports the outcome of a session that already ended on its own.
func (e *Engine) Drain() error {
	e.sessMu.Lock()
	s := e.sess
	if s == nil {
		s = e.lastSess
	}
	e.sessMu.Unlock()
	if s == nil {
		return fmt.Errorf("engine: no session started")
	}
	s.drainMu.Do(func() { close(s.drainCh) })
	<-s.done
	return s.err
}

// Wait blocks until the current session ends (feed drained, context
// cancelled, or Drain) and returns its error.
func (e *Engine) Wait() error {
	e.sessMu.Lock()
	s := e.sess
	if s == nil {
		s = e.lastSess
	}
	e.sessMu.Unlock()
	if s == nil {
		return fmt.Errorf("engine: no session started")
	}
	<-s.done
	return s.err
}

// SessionActive reports whether a session is currently pumping.
func (e *Engine) SessionActive() bool {
	e.sessMu.Lock()
	defer e.sessMu.Unlock()
	return e.sess != nil
}

// do posts fn to the pump and waits for the reply.
func (s *session) do(fn func() (any, error)) (any, error) {
	c := &sessCmd{fn: fn, resp: make(chan cmdResult, 1)}
	select {
	case s.cmds <- c:
	case <-s.done:
		return nil, ErrSessionClosed
	}
	select {
	case r := <-c.resp:
		return r.v, r.err
	case <-s.done:
		// The pump replies before done closes, so a command it ran has
		// its reply buffered by now. No reply means the command was
		// queued behind the pump's last boundary — possibly after finish
		// emptied the queue, when no refusal will ever come.
		select {
		case r := <-c.resp:
			return r.v, r.err
		default:
			return nil, ErrSessionClosed
		}
	}
}

// applyCommands runs every queued Install/Uninstall at a safe boundary
// (ring drained, all nodes settled) and settles queries failed by OnRow
// errors. Pump goroutine only.
func (s *session) applyCommands() (applied int) {
	for {
		select {
		case c := <-s.cmds:
			v, err := c.fn()
			c.resp <- cmdResult{v: v, err: err}
			applied++
		default:
			if s.pendingFails.Swap(0) != 0 {
				s.e.settleFailedHandles()
			}
			return applied
		}
	}
}

// Install compiles src and adds it to the engine as a standing query
// named name, usable before Start and while the session is live (applied
// at the next batch boundary). See InstallOptions for the tap-sharing
// contract. The returned handle delivers the query's output rows.
func (e *Engine) Install(name, src string, opts InstallOptions) (*QueryHandle, error) {
	e.sessMu.Lock()
	s := e.sess
	e.sessMu.Unlock()
	if s == nil {
		if e.runState.Load() != stateIdle {
			return nil, fmt.Errorf("engine: cannot install during a batch run; use a session")
		}
		e.topoMu.Lock()
		defer e.topoMu.Unlock()
		return e.install(name, src, opts)
	}
	v, err := s.do(func() (any, error) {
		e.topoMu.Lock()
		defer e.topoMu.Unlock()
		return e.install(name, src, opts)
	})
	if err != nil {
		return nil, err
	}
	return v.(*QueryHandle), nil
}

// Uninstall removes the named standing query, tearing down its shared
// tap when it was the last subscriber. Its subscriptions close. Like
// Install it works before Start and while the session is live.
func (e *Engine) Uninstall(name string) error {
	e.sessMu.Lock()
	s := e.sess
	e.sessMu.Unlock()
	if s == nil {
		if e.runState.Load() != stateIdle {
			return fmt.Errorf("engine: cannot uninstall during a batch run; use a session")
		}
		e.topoMu.Lock()
		defer e.topoMu.Unlock()
		return e.uninstall(name)
	}
	_, err := s.do(func() (any, error) {
		e.topoMu.Lock()
		defer e.topoMu.Unlock()
		return nil, e.uninstall(name)
	})
	return err
}

// install applies one installation. Caller holds topoMu; runs on the
// pump goroutine (live session) or the caller's (idle engine).
func (e *Engine) install(name, src string, opts InstallOptions) (*QueryHandle, error) {
	if name == "" {
		return nil, fmt.Errorf("engine: query name must not be empty")
	}
	if _, ok := e.handles[name]; ok {
		return nil, fmt.Errorf("engine: query %q: %w", name, ErrDuplicateQuery)
	}
	if err := opts.Quota.Validate(); err != nil {
		return nil, fmt.Errorf("engine: query %q: %w", name, err)
	}
	parsed, err := gsql.Parse(src)
	if err != nil {
		return nil, err
	}
	reg := sfunlib.Default(opts.Seed)
	h := &QueryHandle{
		e: e, name: name, buf: opts.Buffer, block: opts.Block, onRow: opts.OnRow,
		src: src, viaSrc: opts.Via, seed: opts.Seed, quota: opts.Quota.WithDefaults(),
	}
	if h.buf <= 0 {
		h.buf = 256
	}
	if opts.Quota.Enabled() {
		h.gate = overload.NewTenantGate(opts.Quota)
		e.observeQuota(h)
	}
	if strings.EqualFold(parsed.From, trace.Schema().Name()) {
		if opts.Via != "" {
			return nil, fmt.Errorf("engine: query %q reads PKT directly; Via requires FROM <tap>", name)
		}
		plan, err := gsql.Analyze(parsed, trace.Schema(), reg)
		if err != nil {
			return nil, err
		}
		h.node, err = e.AddLowLevel(name, plan)
		if err != nil {
			return nil, err
		}
	} else {
		t, err := e.resolveTap(parsed.From, opts.Via, opts.Seed)
		if err != nil {
			return nil, err
		}
		plan, err := gsql.Analyze(parsed, t.node.Schema(), reg)
		if err != nil {
			e.releaseTap(t)
			return nil, err
		}
		h.node, err = e.AddHighLevel(name, t.node, plan)
		if err != nil {
			e.releaseTap(t)
			return nil, err
		}
		h.tap = t
	}
	h.cols = h.node.plan.SelectNames
	if e.ckpt != nil {
		// Durability contract: a query whose operator state has no codec
		// (user-defined aggregates) would poison every later snapshot and
		// kill the session, so refuse it now, with the topology rolled
		// back, instead of failing the whole session at the next boundary.
		if err := h.node.step.Snapshot(checkpoint.NewEncoder()); err != nil {
			e.removeQueryNode(h)
			return nil, fmt.Errorf("engine: query %q cannot be installed while durability is enabled: %w", name, err)
		}
	}
	h.node.deliver = h.deliver
	h.seq = e.nextSeq
	e.nextSeq++
	e.handles[name] = h
	e.installs.Add(1)
	if e.ckpt != nil {
		e.ckpt.regDirty = true
	}
	e.syncSessionMetrics()
	return h, nil
}

// resolveTap finds or creates the shared low-level node named from. A new
// tap starts with zero subscriber refs; the caller increments on success
// or releases on failure.
func (e *Engine) resolveTap(from, via string, seed uint64) (*tap, error) {
	key := strings.ToLower(from)
	if t, ok := e.taps[key]; ok {
		if via != "" {
			vplan, err := compileVia(via, seed)
			if err != nil {
				return nil, err
			}
			if vplan.Describe() != t.key {
				return nil, fmt.Errorf("engine: tap %q already installed with a different Via query", from)
			}
		}
		t.refs++
		return t, nil
	}
	if via == "" {
		return nil, fmt.Errorf("engine: query reads %q but no such tap is installed (supply InstallOptions.Via)", from)
	}
	return e.addTap(from, via, seed, 1)
}

// compileVia compiles the Via text of a tap: it must parse, read PKT and
// analyze against the packet schema with the seed's SFUN registry.
func compileVia(via string, seed uint64) (*gsql.Plan, error) {
	vparsed, err := gsql.Parse(via)
	if err != nil {
		return nil, fmt.Errorf("engine: via query: %w", err)
	}
	if !strings.EqualFold(vparsed.From, trace.Schema().Name()) {
		return nil, fmt.Errorf("engine: via query must read PKT, got %q", vparsed.From)
	}
	vplan, err := gsql.Analyze(vparsed, trace.Schema(), sfunlib.Default(seed))
	if err != nil {
		return nil, fmt.Errorf("engine: via query: %w", err)
	}
	return vplan, nil
}

// addTap installs the shared low-level node named name from its Via text,
// counting refs subscribers: one for the install creating it, none when a
// durable session restores it (the replayed installs re-count them). Caller
// holds topoMu.
func (e *Engine) addTap(name, via string, seed uint64, refs int) (*tap, error) {
	vplan, err := compileVia(via, seed)
	if err != nil {
		return nil, err
	}
	node, err := e.AddLowLevel(name, vplan)
	if err != nil {
		return nil, err
	}
	t := &tap{name: name, node: node, key: vplan.Describe(), refs: refs, viaSrc: via, seed: seed}
	e.taps[strings.ToLower(name)] = t
	return t, nil
}

// releaseTap drops one subscriber ref, tearing the tap's node down at
// zero. Caller holds topoMu.
func (e *Engine) releaseTap(t *tap) {
	t.refs--
	if t.refs > 0 {
		return
	}
	e.removeLowNode(t.node)
	delete(e.taps, strings.ToLower(t.name))
}

// uninstall applies one removal. Caller holds topoMu.
func (e *Engine) uninstall(name string) error {
	h, ok := e.handles[name]
	if !ok {
		return fmt.Errorf("engine: query %q: %w", name, ErrUnknownQuery)
	}
	e.removeQueryNode(h)
	delete(e.handles, name)
	h.closeSubs(true)
	e.uninstalls.Add(1)
	if e.ckpt != nil {
		e.ckpt.regDirty = true
	}
	e.syncSessionMetrics()
	return nil
}

// removeQueryNode splices a query's node out of the topology (and drops
// its tap ref), the shared teardown for uninstall and a failed install's
// rollback. Caller holds topoMu.
func (e *Engine) removeQueryNode(h *QueryHandle) {
	if t := h.tap; t != nil {
		// High-level node: detach from the tap, then drop the tap ref.
		for i, sub := range t.node.subs {
			if sub == h.node {
				t.node.subs = append(t.node.subs[:i], t.node.subs[i+1:]...)
				t.node.outs = append(t.node.outs[:i], t.node.outs[i+1:]...)
				break
			}
		}
		for i, n := range e.high {
			if n == h.node {
				e.high = append(e.high[:i], e.high[i+1:]...)
				break
			}
		}
		delete(e.names, h.name)
		e.Profiler().Release(h.node.prof)
		e.releaseTap(t)
	} else {
		e.removeLowNode(h.node)
	}
}

// removeLowNode splices one low-level node out of the topology and frees
// its name, and its profile, for reuse. Caller holds topoMu.
func (e *Engine) removeLowNode(n *Node) {
	for i, low := range e.low {
		if low == n {
			e.low = append(e.low[:i], e.low[i+1:]...)
			break
		}
	}
	delete(e.names, n.name)
	e.Profiler().Release(n.prof)
}

// settleFailedHandles converts OnRow-errored queries into contained node
// failures at a safe boundary (the pump stops feeding them afterwards).
func (e *Engine) settleFailedHandles() {
	e.topoMu.RLock()
	var fails []*QueryHandle
	for _, h := range e.handles {
		if h.failedFlag.Load() && !h.node.failed {
			fails = append(fails, h)
		}
	}
	e.topoMu.RUnlock()
	for _, h := range fails {
		e.failNode(h.node, fmt.Sprintf("subscriber error: %v", h.Err()), nil)
	}
}

// syncSessionMetrics mirrors the session bookkeeping into gauges. Caller
// holds topoMu (any mode).
func (e *Engine) syncSessionMetrics() {
	if e.tel == nil {
		return
	}
	r := e.tel.Registry()
	r.Gauge("streamop_session_queries", "standing queries currently installed").Set(float64(len(e.handles)))
	r.Gauge("streamop_session_taps", "shared low-level tap nodes currently installed").Set(float64(len(e.taps)))
	r.Gauge("streamop_session_installs", "queries installed over the engine's lifetime").Set(float64(e.installs.Load()))
	r.Gauge("streamop_session_uninstalls", "queries uninstalled over the engine's lifetime").Set(float64(e.uninstalls.Load()))
}

// Installed returns the current query handles, sorted by name.
func (e *Engine) Installed() []*QueryHandle {
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	out := make([]*QueryHandle, 0, len(e.handles))
	for _, h := range e.handles {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Lookup returns the handle of the named installed query, nil when
// absent.
func (e *Engine) Lookup(name string) *QueryHandle {
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	return e.handles[name]
}

// TapCount returns the number of shared low-level tap nodes installed.
func (e *Engine) TapCount() int {
	e.topoMu.RLock()
	defer e.topoMu.RUnlock()
	return len(e.taps)
}

// QueryHandle is one installed standing query: the subscription hub for
// its output rows plus introspection over its plan and counters.
type QueryHandle struct {
	e     *Engine
	name  string
	node  *Node
	tap   *tap
	cols  []string
	buf   int
	block bool
	onRow func(tuple.Tuple) error

	// Install provenance, persisted by durable sessions (durable.go):
	// the query text, the Via text as given, the seed, and the install
	// sequence number that orders registry replay.
	src    string
	viaSrc string
	seed   uint64
	seq    uint64

	// Per-tenant admission (quota.go): quota is the effective
	// (default-filled) policy, gate the token bucket (nil when the quota
	// carries no row/byte budget).
	quota overload.Quota
	gate  *overload.TenantGate
	qm    *handleQuotaMetrics

	rowsOut    atomic.Int64
	dropped    atomic.Uint64
	detached   atomic.Uint64
	failedFlag atomic.Bool
	errv       atomic.Pointer[error]

	// subs is copy-on-write: deliver loads the slice without a lock, once
	// per run of rows, and walks it, so Subscribe, dropSub and closeSubs —
	// the writers, serialized by mu — store a new backing array and never
	// write into a published one.
	subs    atomic.Pointer[[]*Subscription]
	mu      sync.Mutex
	retired bool

	// deliver's scratch, pump goroutine only: the admitted rows of the run
	// and the lent row OnRow is shown (a row subscriber's copy is made
	// straight from the columns).
	sel []int32
	row tuple.Tuple
	// frames pools the frames frame subscribers share (frames.go).
	frames sync.Pool
}

// liveSubs returns the current subscriber list, for reading only.
func (h *QueryHandle) liveSubs() []*Subscription {
	if p := h.subs.Load(); p != nil {
		return *p
	}
	return nil
}

// dropSub takes s off the subscriber list and reports whether it was on
// it: of a user Close racing the pump's detach, one wins.
func (h *QueryHandle) dropSub(s *Subscription) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	subs := h.liveSubs()
	for i, other := range subs {
		if other == s {
			rest := append(subs[:i:i], subs[i+1:]...)
			h.subs.Store(&rest)
			return true
		}
	}
	return false
}

// Name returns the query's installed name.
func (h *QueryHandle) Name() string { return h.name }

// Columns returns the query's output column names.
func (h *QueryHandle) Columns() []string { return h.cols }

// Via returns the name of the shared tap the query reads, "" when the
// query is its own low-level node.
func (h *QueryHandle) Via() string {
	if h.tap == nil {
		return ""
	}
	return h.tap.name
}

// Explain renders the query's compiled plan (the EXPLAIN output).
func (h *QueryHandle) Explain() string { return h.node.plan.Describe() }

// RowsOut returns the number of output rows delivered so far.
func (h *QueryHandle) RowsOut() int64 { return h.rowsOut.Load() }

// Dropped returns the rows lost to the overflow policy by every
// subscription the query has had, closed and detached ones included.
func (h *QueryHandle) Dropped() uint64 { return h.dropped.Load() }

// Subscribers returns the number of live subscriptions, of both forms.
func (h *QueryHandle) Subscribers() int { return len(h.liveSubs()) }

// Err returns the error that failed this query (an OnRow error or a
// contained operator panic), nil while healthy.
func (h *QueryHandle) Err() error {
	if p := h.errv.Load(); p != nil {
		return *p
	}
	for _, f := range h.e.Failures() {
		if f.Node == h.name {
			return errors.New(f.Msg)
		}
	}
	return nil
}

// deliver takes a run of the query node's output rows, as columns
// (Node.deliver), and never fails: a subscriber problem must not abort the
// shared session. The tenant gate sits ahead of everything, row by row in
// order — a shed row costs the shared pump nothing beyond the admission
// decision, which is what isolates the other tenants from an over-budget
// query. OnRow and row subscribers then see each admitted row in turn, and
// frame subscribers get the admitted rows copied once, as frames they
// share (frames.go).
func (h *QueryHandle) deliver(cols []*tuple.Column) {
	sel := h.admit(cols)
	if len(sel) == 0 {
		return
	}
	h.rowsOut.Add(int64(len(sel)))
	subs := h.liveSubs()
	wait := h.blockWait()
	rowSubs, frameSubs := false, false
	for _, s := range subs {
		rowSubs = rowSubs || s.q == nil
		frameSubs = frameSubs || s.q != nil
	}
	if h.onRow != nil || rowSubs {
		for _, i := range sel {
			if h.onRow != nil {
				h.row = tuple.RowOf(h.row, cols, int(i))
				h.callOnRow(h.row)
			}
			for _, s := range subs {
				if s.q == nil && s.offer(cols, int(i), h.block, wait) && h.quota.LagPolicy() {
					h.noteSubLag(s)
				}
			}
		}
	}
	if frameSubs {
		h.deliverFrames(cols, sel, subs, wait)
	}
}

// admit returns the rows of the run the tenant gate admits, every row
// without a gate.
func (h *QueryHandle) admit(cols []*tuple.Column) []int32 {
	n := cols[0].Len()
	sel := h.sel[:0]
	if g := h.gate; g != nil {
		ts := h.e.lastTS.Load()
		for i := 0; i < n; i++ {
			if g.Admit(rowBytes(cols, i), ts) {
				sel = append(sel, int32(i))
			}
		}
	} else {
		for i := 0; i < n; i++ {
			sel = append(sel, int32(i))
		}
	}
	h.sel = sel
	return sel
}

// callOnRow shows OnRow one admitted row; its first error fails the query.
func (h *QueryHandle) callOnRow(row tuple.Tuple) {
	if h.failedFlag.Load() {
		return
	}
	if err := h.onRow(row); err != nil {
		e := fmt.Errorf("engine: query %q: %w", h.name, err)
		h.errv.Store(&e)
		h.failedFlag.Store(true)
		h.e.sessMu.Lock()
		s := h.e.sess
		h.e.sessMu.Unlock()
		if s != nil {
			s.pendingFails.Add(1)
		}
	}
}

// closeSubs ends every subscription; retire additionally marks the
// handle dead so later Subscribe calls return closed subscriptions.
func (h *QueryHandle) closeSubs(retire bool) {
	h.mu.Lock()
	subs := h.liveSubs()
	h.subs.Store(nil)
	if retire {
		h.retired = true
	}
	h.mu.Unlock()
	for _, s := range subs {
		s.end()
	}
}

// Subscribe returns a new subscription to the query's output rows. Rows
// buffered beyond the query's InstallOptions.Buffer are handled by its
// overflow policy. The channel closes when the query is uninstalled or
// the session ends.
func (h *QueryHandle) Subscribe() *Subscription {
	return h.attach(&Subscription{h: h, ch: make(chan tuple.Tuple, h.buf), closed: make(chan struct{})})
}

// attach puts s on the subscriber list, or ends it at once when the query
// is gone.
func (h *QueryHandle) attach(s *Subscription) *Subscription {
	h.mu.Lock()
	dead := h.retired
	if !dead {
		subs := h.liveSubs()
		subs = append(subs[:len(subs):len(subs)], s)
		h.subs.Store(&subs)
	}
	h.mu.Unlock()
	if dead {
		s.end()
	}
	return s
}

// Rows is a convenience wrapper: it subscribes and yields rows until ctx
// is cancelled, the consumer breaks, the query is uninstalled, or the
// session ends.
func (h *QueryHandle) Rows(ctx context.Context) func(yield func(tuple.Tuple) bool) {
	return func(yield func(tuple.Tuple) bool) {
		s := h.Subscribe()
		defer s.Close()
		done := ctx.Done()
		for {
			select {
			case <-done:
				return
			case row, ok := <-s.ch:
				if !ok || !yield(row) {
					return
				}
			}
		}
	}
}

// Subscription is one bounded stream of a query's output rows, in one of
// two forms. One from Subscribe delivers rows on C(); the channel closes
// when the query is uninstalled or the session ends. Each such subscriber
// gets its own copy of every row, carved from backing arrays the
// subscription allocates a few hundred rows at a time (tuple.Slab): a
// received row is never written again, and holding one keeps its array's
// neighbours alive with it. One from SubscribeFrames delivers frames
// through Ready and TakeFrames instead: runs of rows as columns, copied
// once per run and shared by every frame subscriber of the query (see
// Frame). Buffer bounds the rows queued on either form, and the overflow
// policy, Dropped and the lag ladder count rows on both.
type Subscription struct {
	h         *QueryHandle
	ch        chan tuple.Tuple // row form
	slab      tuple.Slab       // row form; pump goroutine only
	q         *frameQueue      // frame form
	closed    chan struct{}
	closeOnce sync.Once
	dropped   atomic.Uint64
	// Lag-policy state (quota.go): lagging latches once the subscription
	// crossed its query's WarnLag threshold; forcedOff latches when the
	// pump detached it at DetachAfter (its channel is then closed).
	lagging   atomic.Bool
	forcedOff atomic.Bool
}

// C returns the subscription's row channel; nil for a frame subscription.
func (s *Subscription) C() <-chan tuple.Tuple { return s.ch }

// Dropped returns rows this subscription lost to the drop policy.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// lose counts n rows the subscription lost, on it and on its query: the
// query's count is taken as the rows go, so no way out of the subscriber
// list can lose it.
func (s *Subscription) lose(n int) {
	s.dropped.Add(uint64(n))
	s.h.dropped.Add(uint64(n))
}

// Lagging reports whether the subscription crossed its query's WarnLag
// threshold.
func (s *Subscription) Lagging() bool { return s.lagging.Load() }

// Detached reports whether the pump force-detached the subscription
// under its query's DetachAfter policy (its channel has closed).
func (s *Subscription) Detached() bool { return s.forcedOff.Load() }

// Close detaches the subscription: the pump stops delivering to it and
// drops it from the query's subscriber list. Safe to call from any
// goroutine, any number of times. The row channel is NOT closed by Close
// (the pump owns it); consumers ranging over C() should select on their
// own context instead. The frames a frame subscription had queued and not
// taken are released.
func (s *Subscription) Close() {
	if s.q != nil {
		s.q.discard() // before closed: a pump waiting on it finds the end
	}
	s.closeOnce.Do(func() { close(s.closed) })
	s.h.dropSub(s)
}

// end ends the subscription's stream from the pump's side: the row channel
// closes, or the frame queue reports its end once taken.
func (s *Subscription) end() {
	if s.q != nil {
		s.q.end()
		return
	}
	close(s.ch)
}

// offer delivers row i of cols, copied into the subscription's slab,
// under the overflow policy and reports whether the subscription lost a
// row doing so. Pump goroutine only. wait bounds the block policy's
// backpressure: <= 0 waits indefinitely (the default Block contract); > 0
// converts a timed-out wait into a counted drop (the shed-with-counters
// rung of the quota lag ladder).
func (s *Subscription) offer(cols []*tuple.Column, i int, block bool, wait time.Duration) bool {
	select {
	case <-s.closed:
		return false
	default:
	}
	r := s.slab.Row(cols, i)
	select {
	case s.ch <- r:
		return false
	default:
	}
	if block {
		if wait <= 0 {
			select {
			case s.ch <- r:
			case <-s.closed:
			}
			return false
		}
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case s.ch <- r:
			return false
		case <-s.closed:
			return false
		case <-t.C:
			s.lose(1)
			return true
		}
	}
	// Drop-oldest: evict one buffered row, then retry once; a consumer
	// racing us may have freed space either way.
	lost := false
	select {
	case <-s.ch:
		s.lose(1)
		lost = true
	default:
	}
	select {
	case s.ch <- r:
	default:
		s.lose(1)
		lost = true
	}
	return lost
}
