package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span names that only give the trace its shape. Their self time is the
// part of a pass the harness could not attribute to a layer.
const (
	spanPass = "pass"
	spanOp   = "op"
)

// span is one timed interval around a call into a layer. Start and End
// are nanoseconds since the tracer was made; Parent is the span that
// caused it (-1 for a root) and Op the operation both belong to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced passes run the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under parent and returns its id. A child inherits
// its parent's op; an "op" span starts a new one.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	return t.add(name, parent, time.Now(), time.Time{})
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose times are already known, such as the queue
// wait read off a job's status timestamps. A zero end leaves it open.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	sp := span{ID: id, Parent: parent, Op: -1, Name: name, Start: start.Sub(t.epoch).Nanoseconds()}
	if !end.IsZero() {
		sp.End = end.Sub(t.epoch).Nanoseconds()
	}
	switch {
	case name == spanOp:
		sp.Op = id
	case parent >= 0:
		sp.Op = t.spans[parent].Op
	}
	t.spans = append(t.spans, sp)
	return id
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span name, the summed self time of the spans
// under root (root included): a span's duration minus the part of it its
// children cover. Children are clipped to their parent and overlapping
// children count once, so self times never add up to more than the wall
// time of a pass driven by one client.
func selfTimes(spans []span, root int) map[string]int64 {
	children := make(map[int][]span)
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	out := make(map[string]int64)
	var walk func(sp span)
	walk = func(sp span) {
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), sp.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, sp.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
			walk(k)
		}
		out[sp.Name] += sp.End - sp.Start - covered
	}
	walk(spans[root])
	return out
}

// coveragePct is the share of a traced pass's accounted time that lies in
// a layer span, i.e. not in the self time of the pass and op spans.
func coveragePct(self map[string]int64) float64 {
	var total, shape int64
	for name, ns := range self {
		total += ns
		if name == spanPass || name == spanOp {
			shape += ns
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(total-shape) / float64(total)
}
