package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer, or a span the
// program's own tracer recorded underneath such a call. Start and End are
// nanoseconds since the recorder's epoch. Spans of one round, request or
// replay run share a Trace id; Parent is the span that caused this one.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace"`
	Layer  string `json:"layer"` // Go package the call lands in
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder is the
// untraced run: every method is a no-op, so the measured loops carry one
// nil check and nothing else.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// since converts a wall-clock instant to recorder nanoseconds.
func (r *recorder) since(t time.Time) int64 {
	if r == nil {
		return 0
	}
	return int64(t.Sub(r.epoch))
}

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(parent, trace int64, layer, name string) int64 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace,
		Layer: layer, Name: name, Start: now, End: -1})
	r.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (r *recorder) end(id int64) {
	if r == nil || id <= 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records an already-timed span (a program tracer span folded in under
// the harness span that caused it) and returns its id.
func (r *recorder) add(parent, trace int64, layer, name string, start, end int64) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace,
		Layer: layer, Name: name, Start: start, End: end})
	r.mu.Unlock()
	return id
}

// closed returns the finished spans.
func (r *recorder) closed() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover. Children are clipped to the parent
// and overlapping children (concurrent calls) are counted once.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		edge := s.Start // everything before edge is already accounted for
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerRow is one line of the layer table: every span of one (layer, name)
// pair, with total and self time summed.
type layerRow struct {
	Layer   string  `json:"layer"`
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"totalMs"`
	SelfMs  float64 `json:"selfMs"`
}

// layerTable aggregates spans by (layer, name), largest self time first.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	idx := make(map[[2]string]int)
	var rows []layerRow
	for _, s := range spans {
		k := [2]string{s.Layer, s.Name}
		i, ok := idx[k]
		if !ok {
			i = len(rows)
			idx[k] = i
			rows = append(rows, layerRow{Layer: s.Layer, Name: s.Name})
		}
		rows[i].Count++
		rows[i].TotalMs += float64(s.dur()) / 1e6
		rows[i].SelfMs += float64(self[s.ID]) / 1e6
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMs != rows[j].SelfMs {
			return rows[i].SelfMs > rows[j].SelfMs
		}
		return rows[i].Layer+rows[i].Name < rows[j].Layer+rows[j].Name
	})
	return rows
}

// spanFile is what a traced run writes when it ends.
type spanFile struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Layers   []layerRow `json:"layers"`
	Spans    []span     `json:"spans"`
}

func writeSpanFile(path string, f spanFile) error {
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
