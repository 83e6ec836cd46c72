package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
)

// span is one traced interval at a layer boundary, recorded from the
// benchmark's own files around its calls into the program. Parent is the
// index of the span that caused it (-1 for a root); spans of one window
// or one HTTP request share ID.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     uint64 `json:"id"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// (untraced runs) records nothing.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its index, for children to name.
func (r *recorder) add(name string, start, end int64, parent int, id uint64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name, start, end, parent, id})
	return len(r.spans) - 1
}

// write stores the spans with the host block under the benchmark's own
// out directory.
func (r *recorder) write(dir, workload string, h hostBlock) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Host     hostBlock `json:"host"`
		Workload string    `json:"workload"`
		Spans    []span    `json:"spans"`
	}{h, workload, r.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
