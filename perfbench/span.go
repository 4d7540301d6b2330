package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanRec is one traced interval: a call from the benchmark into a
// layer, or a server stage reported through Server-Timing.
type spanRec struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // -1 for a root
	Req    int64  `json:"req"`    // request (or pass) identifier
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record adds a finished span and returns its ID (-1 when off).
func (t *tracer) record(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, spanRec{ID: id, Name: name, Start: start.Sub(t.t0).Nanoseconds(),
		End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Req: req})
	return id
}

// open starts a span whose end is not known yet, so that its children
// can be recorded as they finish; close ends it. Both are no-ops when
// off.
func (t *tracer) open(name string, parent int, req int64, start time.Time) int {
	return t.record(name, parent, req, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end.Sub(t.t0).Nanoseconds()
}

// ledgerRow is one span name's summed self time.
type ledgerRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	SelfMs float64 `json:"self_ms"`
	Share  float64 `json:"share"`
}

// closure is the traced run's accounting: the self times of every
// span plus the unexplained remainder (root self time, and any name
// listed as unexplained) add up to the end-to-end figure, the summed
// duration of the root spans.
type closure struct {
	FigureMs      float64     `json:"figure_ms"`
	ExplainedMs   float64     `json:"explained_ms"`
	UnexplainedMs float64     `json:"unexplained_ms"`
	ClosureError  float64     `json:"closure_error"`
	Rows          []ledgerRow `json:"rows"`
}

// ledger computes self times: a span's duration minus the part of its
// interval its children cover. Spans named in unexplained count toward
// the remainder rather than a layer.
func (t *tracer) ledger(unexplained map[string]bool) closure {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	kids := map[int][]spanRec{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	rows := map[string]*ledgerRow{}
	var c closure
	for _, s := range spans {
		self := float64(s.End-s.Start) - covered(s, kids[s.ID])
		ms := self / 1e6
		if s.Parent < 0 {
			c.FigureMs += float64(s.End-s.Start) / 1e6
			c.UnexplainedMs += ms
			continue
		}
		if unexplained[s.Name] {
			c.UnexplainedMs += ms
			continue
		}
		r := rows[s.Name]
		if r == nil {
			r = &ledgerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.SelfMs += ms
		c.ExplainedMs += ms
	}
	for _, name := range sortedKeys(rows) {
		r := rows[name]
		r.Share = ratio(r.SelfMs, c.FigureMs)
		c.Rows = append(c.Rows, *r)
	}
	if c.FigureMs > 0 {
		c.ClosureError = (c.ExplainedMs + c.UnexplainedMs - c.FigureMs) / c.FigureMs
	}
	return c
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p spanRec, kids []spanRec) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if curE < 0 || s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	if curE > curS {
		total += curE - curS
	}
	return float64(total)
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
