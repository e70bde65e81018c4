package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the ID of the span that caused this one (0 for a root).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's creation.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced code paths pay only a nil check.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its ID.
func (t *Tracer) Begin(name string, req, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// End closes span id.
func (t *Tracer) End(id int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// Spans returns a copy of every closed span.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteJSONLines writes one span per line, each tagged with pass.
func (t *Tracer) WriteJSONLines(w io.Writer, pass string) error {
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(struct {
			Pass string `json:"pass"`
			Span
		}{pass, s}); err != nil {
			return err
		}
	}
	return nil
}

// SelfTimes maps each span ID to its self time: its duration minus the
// part of its interval that its child spans cover. Overlapping children
// (a layer fanning out over goroutines) are counted once.
func SelfTimes(spans []Span) map[int64]time.Duration {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals, clipped to
// the parent's interval.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return total
}

// spanStats aggregates spans by name: per-span durations and self times
// in µs, and both summed per request.
type spanStats struct {
	dur, self       map[string][]float64
	reqDur, reqSelf map[string]map[int64]float64
}

func aggregate(spans []Span) spanStats {
	self := SelfTimes(spans)
	st := spanStats{dur: map[string][]float64{}, self: map[string][]float64{},
		reqDur: map[string]map[int64]float64{}, reqSelf: map[string]map[int64]float64{}}
	for _, s := range spans {
		d, sf := us(s.End-s.Start), us(self[s.ID])
		st.dur[s.Name] = append(st.dur[s.Name], d)
		st.self[s.Name] = append(st.self[s.Name], sf)
		if st.reqDur[s.Name] == nil {
			st.reqDur[s.Name], st.reqSelf[s.Name] = map[int64]float64{}, map[int64]float64{}
		}
		st.reqDur[s.Name][s.Req] += d
		st.reqSelf[s.Name][s.Req] += sf
	}
	return st
}

// reqSums lists the per-request duration sums of one span name.
func (st spanStats) reqSums(name string) []float64 {
	var out []float64
	for _, v := range st.reqDur[name] {
		out = append(out, v)
	}
	return out
}

// selfOver lists, for each request of upper, its time less the time of
// the lower spans of the same request: the upper layer's self time when
// lower holds the next layer's calls for that request.
func selfOver(upper map[int64]float64, lower ...map[int64]float64) []float64 {
	var out []float64
	for req, v := range upper {
		for _, l := range lower {
			v -= l[req]
		}
		out = append(out, v)
	}
	return out
}
