package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around the
// call (spans inside the program are a later change). Parent is the ID of
// the span that caused it, -1 for a root; spans of one operation share Op.
type Span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
}

// Tracer keeps spans in memory until the run ends. It is safe for the
// concurrent clients of svc_small.
type Tracer struct {
	workload string
	epoch    time.Time
	mu       sync.Mutex
	spans    []Span
}

// NewTracer starts an empty trace for one workload.
func NewTracer(workload string) *Tracer {
	return &Tracer{workload: workload, epoch: time.Now()}
}

// Begin opens a span and returns its ID; pass it to End.
func (t *Tracer) Begin(name, layer string, op, parent int) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Name: name, Layer: layer, Workload: t.workload, Op: op, StartNS: now, EndNS: now, Parent: parent})
	return id
}

// End closes a span and returns its duration.
func (t *Tracer) End(id int) time.Duration {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNS = now
	return time.Duration(now - t.spans[id].StartNS)
}

// Do times fn as one span.
func (t *Tracer) Do(name, layer string, op, parent int, fn func()) time.Duration {
	id := t.Begin(name, layer, op, parent)
	fn()
	return t.End(id)
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// MedianMS is the median duration, in milliseconds, of the spans with the
// given name (0 when there are none).
func (t *Tracer) MedianMS(name string) float64 {
	var ms []float64
	for _, s := range t.Spans() {
		if s.Name == name {
			ms = append(ms, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return median(ms)
}

// SelfMS sums, per layer, each span's duration minus the part of that
// interval its child spans cover — where the operations' time went once
// nesting is removed. Children that ran concurrently (the shard executions
// of dist_60k) cover their union, not their sum. Spans with Op < 0 are side
// measurements off the operation's path (the parallel counter, the other
// shard drivers) and are left out.
func SelfMS(spans []Span) map[string]float64 {
	self := make(map[string]float64)
	for i, ns := range selfNS(spans) {
		if spans[i].Op >= 0 {
			self[spans[i].Layer] += float64(ns) / 1e6
		}
	}
	return self
}

// selfNS returns every span's self time, indexed like spans.
func selfNS(spans []Span) []int64 {
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := make([][]Span, len(spans))
	for _, s := range spans {
		if p, ok := index[s.Parent]; ok && s.Parent >= 0 {
			children[p] = append(children[p], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.EndNS - s.StartNS - covered
	}
	return out
}

// RootSelfMS is the median self time, in milliseconds, of the root spans
// with the given name: what an operation spends outside every traced call.
func (t *Tracer) RootSelfMS(name string) float64 {
	spans := t.Spans()
	var ms []float64
	for i, ns := range selfNS(spans) {
		if spans[i].Name == name && spans[i].Parent < 0 {
			ms = append(ms, float64(ns)/1e6)
		}
	}
	return median(ms)
}

// chromeTrace is the Chrome trace-event format's JSON object form, which
// chrome://tracing and ui.perfetto.dev both open: one complete ("X") event
// per span, times in microseconds.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	Args Span    `json:"args"`
}

// WriteChrome writes the spans as Chrome trace-event JSON, one track per
// operation (svc_small: per client). Each event's args carry the span
// itself, so ReadChrome gets back exactly what was recorded.
func WriteChrome(path string, spans []Span) error {
	t := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(spans)), DisplayTimeUnit: "ms"}
	for _, s := range spans {
		t.TraceEvents = append(t.TraceEvents, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS: float64(s.StartNS) / 1e3, Dur: float64(s.EndNS-s.StartNS) / 1e3,
			PID: 1, TID: s.Op + 1, Args: s,
		})
	}
	data, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadChrome loads the spans of a trace WriteChrome wrote.
func ReadChrome(path string) ([]Span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t chromeTrace
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	spans := make([]Span, len(t.TraceEvents))
	for i, e := range t.TraceEvents {
		spans[i] = e.Args
	}
	return spans, nil
}

// median of xs (0 when empty); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
