package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer's public functions, recorded by the
// benchmark around the call (nothing inside the program is instrumented).
// Spans of one op share Rep; Parent is the span that caused this one.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: a root
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNS  int64  `json:"start_ns"` // unix nanoseconds
	EndNS    int64  `json:"end_ns"`
	// Derived marks a span rebuilt from the program's own stage timings
	// (netsim.Output.Stats) instead of timed by the benchmark: the stages
	// run inside one public call and cannot be wrapped from outside.
	Derived bool `json:"derived,omitempty"`
}

// tracer keeps spans in memory until the run ends. The nil tracer records
// nothing, so the untraced path pays one pointer check per call site.
type tracer struct {
	workload string
	mu       sync.Mutex
	spans    []Span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload} }

// add records a finished span and returns its id (0 on the nil tracer).
func (t *tracer) add(parent, rep int, name, layer string, start, end time.Time, derived bool) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Name: name, Layer: layer, Workload: t.workload, Rep: rep,
		StartNS: start.UnixNano(), EndNS: end.UnixNano(), Derived: derived,
	})
	return id
}

// open reserves a span whose end is set by close: a parent must have its
// id before its children run.
func (t *tracer) open(parent, rep int, name, layer string) int {
	now := time.Now()
	return t.add(parent, rep, name, layer, now, now, false)
}

func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// adopt appends spans recorded by a child process, renumbering them after
// the spans already held.
func (t *tracer) adopt(spans []Span, rep int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Rep, s.Workload = rep, t.workload
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) all() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
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

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children are clipped to the parent
// and overlapping children (concurrent clients) are counted once.
func selfTimes(spans []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return self
}

// layerBudget is the traced run's budget table: per layer, the self time
// summed over every span of the layer, and the wall time of the root spans
// those self times add up to.
type layerBudget struct {
	Ops   int                      `json:"ops"`
	Wall  time.Duration            `json:"wall_ns"`
	Layer map[string]time.Duration `json:"layer_self_ns"`
}

func budget(spans []Span) layerBudget {
	b := layerBudget{Layer: map[string]time.Duration{}}
	self := selfTimes(spans)
	for _, s := range spans {
		b.Layer[s.Layer] += self[s.ID]
		if s.Parent == 0 {
			b.Ops++
			b.Wall += time.Duration(s.EndNS - s.StartNS)
		}
	}
	return b
}

// share is a layer's self time as a fraction of the traced wall time.
func (b layerBudget) share(layer string) float64 {
	if b.Wall == 0 {
		return 0
	}
	return float64(b.Layer[layer]) / float64(b.Wall)
}
