package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one request share its
// request ID; a span with Parent 0 is a request root.
type span struct {
	ID      int32  `json:"span"`
	Parent  int32  `json:"parent"`
	Name    string `json:"name"`
	Request string `json:"request"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced pass in memory; they are written out
// once, when the pass is over. It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name, request string, parent int32) int32 {
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Request: request})
	t.spans[id-1].StartNS = time.Since(t.t0).Nanoseconds()
	return id
}

// end closes a span and returns its duration in µs.
func (t *tracer) end(id int32) float64 {
	s := &t.spans[id-1]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	return float64(s.EndNS-s.StartNS) / 1e3
}

// checkSpans asserts the shape the span file promises: every span is
// closed and is either a request root or the child of an earlier span of
// the same request, and under every root the self times (a span's duration
// minus what its children cover) add up to no more than the root lasted.
func checkSpans(spans []span) error {
	covered := make([]int64, len(spans)+1) // time covered by direct children
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 0 || s.Parent >= s.ID {
			return fmt.Errorf("span %d (%s) has no earlier parent", s.ID, s.Name)
		}
		p := spans[s.Parent-1]
		if p.Request != s.Request {
			return fmt.Errorf("span %d (%s) and its parent belong to different requests", s.ID, s.Name)
		}
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			return fmt.Errorf("span %d (%s) is not inside its parent", s.ID, s.Name)
		}
		covered[s.Parent] += s.EndNS - s.StartNS
	}
	// Self times below a root: walk up from every span to its root.
	self := make(map[int32]int64)
	for _, s := range spans {
		own := s.EndNS - s.StartNS - covered[s.ID]
		if own < 0 {
			return fmt.Errorf("children of span %d (%s) cover more than the span", s.ID, s.Name)
		}
		root := s
		for root.Parent != 0 {
			root = spans[root.Parent-1]
		}
		self[root.ID] += own
	}
	for id, sum := range self {
		if r := spans[id-1]; sum > r.EndNS-r.StartNS {
			return fmt.Errorf("self times under root %d (%s) exceed the root", id, r.Name)
		}
	}
	return nil
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
