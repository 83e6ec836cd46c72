package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
)

// sseFrame is one Server-Sent Event as gsqd writes it: optional id, an
// event name and one data line.
type sseFrame struct {
	id    uint64
	hasID bool
	event string
	data  []byte // valid until the next call to next
	size  int    // bytes on the wire, blank line included
}

// sseReader splits an event stream into frames. Comment lines (": ping")
// are skipped; a frame ends at a blank line.
type sseReader struct {
	r    *bufio.Reader
	data []byte
}

func newSSEReader(r io.Reader) *sseReader {
	return &sseReader{r: bufio.NewReaderSize(r, 64<<10)}
}

// next returns the next frame, or io.EOF at a clean end of stream. A
// stream that ends inside a frame is io.ErrUnexpectedEOF.
func (s *sseReader) next() (sseFrame, error) {
	var f sseFrame
	s.data = s.data[:0]
	inFrame := false
	for {
		line, err := s.r.ReadSlice('\n')
		if err != nil {
			if err == io.EOF && (inFrame || len(line) > 0) {
				err = io.ErrUnexpectedEOF
			}
			return f, err
		}
		f.size += len(line)
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if !inFrame {
				f.size = 0
				continue // stray blank line between frames
			}
			f.data = s.data
			return f, nil
		case line[0] == ':':
			if !inFrame {
				f.size = 0
			}
			continue
		}
		inFrame = true
		name, val, _ := bytes.Cut(line, []byte(":"))
		val = bytes.TrimPrefix(val, []byte(" "))
		switch string(name) {
		case "id":
			id, err := strconv.ParseUint(string(val), 10, 64)
			if err != nil {
				return f, fmt.Errorf("sse: bad id line %q", line)
			}
			f.id, f.hasID = id, true
		case "event":
			f.event = string(val)
		case "data":
			s.data = append(s.data, val...)
		default:
			return f, fmt.Errorf("sse: unknown field in line %q", line)
		}
	}
}

// jsonUint pulls the unsigned integer stored under key out of a flat JSON
// object without decoding the rest — the per-row cost the SSE client can
// afford while sharing two cores with the server it measures.
func jsonUint(obj []byte, key string) (uint64, bool) {
	pat := `"` + key + `":`
	i := bytes.Index(obj, []byte(pat))
	if i < 0 {
		return 0, false
	}
	i += len(pat)
	j := i
	for j < len(obj) && obj[j] >= '0' && obj[j] <= '9' {
		j++
	}
	if j == i {
		return 0, false
	}
	v, err := strconv.ParseUint(string(obj[i:j]), 10, 64)
	return v, err == nil
}
