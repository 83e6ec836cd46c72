package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"streamop/internal/tuple"
)

// Frames: a query's output rows handed to a consumer a batch at a time.
//
// Subscribe's rows cost the pump a copy per row per subscriber and a
// channel operation each. A frame subscription (SubscribeFrames) is
// handed the node's output run instead: deliver copies the admitted rows
// once into pooled columns, the frame, which every frame subscriber of the
// query shares read-only, and queues it on each of them. A consumer takes
// everything queued in one call and releases each frame when it is done
// with it; the last holder to release puts the frame back in the query's
// pool. Buffer still counts rows: a frame holds at most min(Buffer,
// maxFrameRows) rows, Block waits until a whole frame fits, and drop-oldest
// evicts the oldest queued rows, cutting into a frame when it must.

// maxFrameRows caps the rows of one frame: a window's flush (tens of
// thousands of rows) goes out as many frames, so the memory a consumer
// holds stays a few batches' worth and the pump never waits for a whole
// window to be taken.
const maxFrameRows = tuple.DefaultBatchRows

// frame is one pooled copy of a run of output rows.
type frame struct {
	cols []tuple.Column
	ptrs []*tuple.Column // &cols[i], what Frame.Cols hands out
	refs atomic.Int32
	pool *sync.Pool
}

func (f *frame) release() {
	if f.refs.Add(-1) == 0 {
		f.pool.Put(f)
	}
}

// Frame is rows [Lo, Hi) of a run of a query's output, as columns. It is
// lent: shared with every other frame subscriber of the query, never
// written while held, and recycled after Release, so the consumer reads it
// until it calls Release (exactly once) and copies what it keeps beyond.
type Frame struct {
	f      *frame
	Lo, Hi int
}

// Cols returns the frame's columns, one per output column in SELECT order.
// Read rows Lo to Hi-1 of them; they are read-only.
func (f Frame) Cols() []*tuple.Column { return f.f.ptrs }

// Len returns the number of rows in the frame.
func (f Frame) Len() int { return f.Hi - f.Lo }

// Release hands the frame back; it must not be read afterwards.
func (f Frame) Release() { f.f.release() }

// frameQueue is a frame subscription's queue: the pump appends, the
// consumer takes all of it at once.
type frameQueue struct {
	mu    sync.Mutex
	items []Frame
	rows  int  // rows queued, what Buffer bounds
	ended bool // no frame will be queued again: the stream ended or Close
	// ready holds a token once a frame lands on an empty queue or the
	// stream ends; space holds one once the consumer emptied the queue.
	ready, space chan struct{}
}

// notify leaves a token on a one-slot channel unless one is waiting.
func notify(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// SubscribeFrames returns a new subscription that receives the query's
// output as frames rather than rows: wait on Ready, then TakeFrames. The
// query's Buffer bounds the rows queued on it, and its overflow policy
// applies per frame (see Frame).
func (h *QueryHandle) SubscribeFrames() *Subscription {
	return h.attach(&Subscription{h: h, closed: make(chan struct{}),
		q: &frameQueue{ready: make(chan struct{}, 1), space: make(chan struct{}, 1)}})
}

// Ready returns a channel that receives when frames are queued or the
// stream has ended: the moment to call TakeFrames. Frame subscriptions
// only.
func (s *Subscription) Ready() <-chan struct{} { return s.q.ready }

// TakeFrames appends every queued frame to dst, never waiting, and reports
// whether the stream goes on: false once it has ended (the query was
// uninstalled, the session ended, or the pump detached the subscription)
// and these are its last frames. Each returned frame is the caller's to
// Release. Frame subscriptions only.
func (s *Subscription) TakeFrames(dst []Frame) ([]Frame, bool) {
	q := s.q
	q.mu.Lock()
	dst = append(dst, q.items...)
	clear(q.items)
	q.items = q.items[:0]
	took := q.rows > 0
	q.rows = 0
	open := !q.ended
	q.mu.Unlock()
	if took {
		notify(q.space)
	}
	return dst, open
}

// end ends a frame stream: the frames queued stay for the consumer
// to take, and the next TakeFrames reports the end.
func (q *frameQueue) end() {
	q.mu.Lock()
	q.ended = true
	q.mu.Unlock()
	notify(q.ready)
}

// discard ends the stream from the consumer's side and releases what it
// never took.
func (q *frameQueue) discard() {
	q.mu.Lock()
	q.ended = true
	items := q.items
	q.items, q.rows = nil, 0
	q.mu.Unlock()
	for _, f := range items {
		f.Release()
	}
}

// newFrame takes a frame from the query's pool, empty, held once (by the
// pump).
func (h *QueryHandle) newFrame() *frame {
	f, _ := h.frames.Get().(*frame)
	if f == nil {
		f = &frame{cols: make([]tuple.Column, h.node.schema.NumFields()), pool: &h.frames}
		f.ptrs = make([]*tuple.Column, len(f.cols))
		for i := range f.cols {
			f.ptrs[i] = &f.cols[i]
		}
	}
	for i := range f.cols {
		f.cols[i].Reset()
	}
	f.refs.Store(1)
	return f
}

// deliverFrames copies the admitted rows sel of cols into frames of at
// most min(Buffer, maxFrameRows) rows and queues each on every frame
// subscriber. Pump goroutine only.
func (h *QueryHandle) deliverFrames(cols []*tuple.Column, sel []int32, subs []*Subscription, wait time.Duration) {
	cut := min(h.buf, maxFrameRows)
	for lo := 0; lo < len(sel); lo += cut {
		run := sel[lo:min(lo+cut, len(sel))]
		f := h.newFrame()
		for i, col := range cols {
			f.cols[i].Gather(col, run)
		}
		for _, s := range subs {
			if s.q != nil && s.offerFrame(f, len(run), h.block, wait) && h.quota.LagPolicy() {
				h.noteSubLag(s)
			}
		}
		f.release()
	}
}

// offerFrame queues rows [0, n) of f under the overflow policy and reports
// whether the subscription lost rows doing so. Pump goroutine only. Block
// waits until the frame fits — the consumer emptied the queue — with wait
// > 0 bounding that wait, once per frame, by a drop of the frame's rows;
// drop-oldest evicts the oldest queued rows to make room.
func (s *Subscription) offerFrame(f *frame, n int, block bool, wait time.Duration) bool {
	q, limit := s.q, s.h.buf
	q.mu.Lock()
	if block && q.rows+n > limit && !q.ended {
		var timeout <-chan time.Time
		if wait > 0 {
			t := time.NewTimer(wait)
			defer t.Stop()
			timeout = t.C
		}
		for q.rows+n > limit && !q.ended {
			q.mu.Unlock()
			select {
			case <-q.space:
			case <-s.closed:
			case <-timeout:
				s.lose(n)
				return true
			}
			q.mu.Lock()
		}
	}
	if q.ended {
		q.mu.Unlock()
		return false
	}
	lost, gone := 0, 0
	for q.rows+n > limit {
		head := &q.items[gone]
		k := min(head.Len(), q.rows+n-limit)
		head.Lo += k
		q.rows -= k
		lost += k
		if head.Len() == 0 {
			head.Release()
			gone++
		}
	}
	if gone > 0 {
		rest := copy(q.items, q.items[gone:])
		clear(q.items[rest:])
		q.items = q.items[:rest]
	}
	wake := len(q.items) == 0
	f.refs.Add(1)
	q.items = append(q.items, Frame{f: f, Lo: 0, Hi: n})
	q.rows += n
	q.mu.Unlock()
	if wake {
		notify(q.ready)
	}
	if lost > 0 {
		s.lose(lost)
		return true
	}
	return false
}
