// Package distinct implements Gibbons' distinct sampling ("Distinct
// sampling for highly-accurate answers to distinct values queries and
// event reports", VLDB 2001): a uniform random sample over the *distinct*
// values of a stream, maintained in one pass with bounded memory.
//
// A value v belongs to the sample at level L when its hash has at least L
// trailing zero bits. The sampler starts at level 0 (every distinct value
// qualifies) and increments the level — halving the qualifying fraction
// and evicting non-qualifying values — whenever the sample exceeds its
// capacity. Each retained value carries a count of its occurrences, so the
// sketch answers count-distinct (count * 2^level), event reports and
// rarity-style predicates over distinct values.
//
// The algorithm fits the sampling operator's structure exactly: a loose
// admission predicate (hash qualifies at the current level), a cleaning
// trigger (sample over capacity) and a per-sample keep predicate (hash
// qualifies at the new level); sfunlib exposes it as the ds* family.
package distinct

import (
	"fmt"
	"math/bits"
)

// Entry is one sampled distinct value.
type Entry struct {
	Hash  uint64
	Count int64 // occurrences observed while the value was in the sample
}

// Sampler maintains a distinct-value sample of bounded size.
type Sampler struct {
	capacity int
	level    uint
	table    map[uint64]*Entry
	order    []*Entry // insertion order, for deterministic output
}

// New returns a sampler holding at most capacity distinct values.
func New(capacity int) (*Sampler, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("distinct: capacity must be >= 1, got %d", capacity)
	}
	return &Sampler{capacity: capacity, table: make(map[uint64]*Entry)}, nil
}

// Qualifies reports whether hash h belongs to sampling level l.
func Qualifies(h uint64, l uint) bool {
	return uint(bits.TrailingZeros64(h)) >= l
}

// Offer presents one (pre-hashed) value occurrence. It reports whether the
// value is in the sample after the call.
func (s *Sampler) Offer(h uint64) bool {
	if e, ok := s.table[h]; ok {
		e.Count++
		return true
	}
	if !Qualifies(h, s.level) {
		return false
	}
	e := &Entry{Hash: h, Count: 1}
	s.table[h] = e
	s.order = append(s.order, e)
	if len(s.table) > s.capacity {
		s.raiseLevel()
	}
	return s.table[h] != nil && Qualifies(h, s.level)
}

// raiseLevel increments the level until the sample fits, evicting values
// whose hashes no longer qualify.
func (s *Sampler) raiseLevel() {
	for len(s.table) > s.capacity {
		s.level++
		kept := s.order[:0]
		for _, e := range s.order {
			if Qualifies(e.Hash, s.level) {
				kept = append(kept, e)
				continue
			}
			delete(s.table, e.Hash)
		}
		for i := len(kept); i < len(s.order); i++ {
			s.order[i] = nil
		}
		s.order = kept
		if s.level > 64 {
			return // all hashes exhausted; cannot happen for capacity >= 1
		}
	}
}

// Level returns the current sampling level.
func (s *Sampler) Level() uint { return s.level }

// Size returns the number of distinct values currently sampled.
func (s *Sampler) Size() int { return len(s.table) }

// Sample returns the sampled entries in first-seen order.
func (s *Sampler) Sample() []Entry {
	out := make([]Entry, len(s.order))
	for i, e := range s.order {
		out[i] = *e
	}
	return out
}

// DistinctEstimate estimates the number of distinct values offered:
// each sampled value represents 2^level distinct values.
func (s *Sampler) DistinctEstimate() float64 {
	return float64(len(s.table)) * float64(uint64(1)<<s.level)
}

// Reset clears the sampler for a new window, keeping the capacity.
func (s *Sampler) Reset() {
	s.level = 0
	s.table = make(map[uint64]*Entry)
	s.order = s.order[:0]
}
