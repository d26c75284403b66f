package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// tracer records the benchmark's own spans in an obs.Recorder and keeps
// the trace IDs it started, so every trace can be read back when the run
// ends. Span trees pulled from the service join the trace they continue.
// A nil *tracer records nothing and hands out nil (no-op) spans.
type tracer struct {
	rec *obs.Recorder

	mu     sync.Mutex
	traces []obs.TraceID
	remote map[obs.TraceID][]*obs.SpanNode
}

// tracerCap bounds the span rings of the benchmark and of the traced
// service-mix servers: large enough that no span of one run is evicted
// (the largest run records a few thousand).
const tracerCap = 1 << 16

func newTracer() *tracer {
	return &tracer{rec: obs.NewRecorder(tracerCap), remote: map[obs.TraceID][]*obs.SpanNode{}}
}

// root starts a new trace.
func (t *tracer) root(name string) *obs.Span {
	if t == nil {
		return nil
	}
	sp := t.rec.StartRoot(name)
	t.mu.Lock()
	t.traces = append(t.traces, sp.Context().TraceID)
	t.mu.Unlock()
	return sp
}

// addRemote attaches spans recorded elsewhere (a pulled job trace) to
// one of this tracer's traces.
func (t *tracer) addRemote(id obs.TraceID, nodes []*obs.SpanNode) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.remote[id] = append(t.remote[id], nodes...)
}

// spans returns every recorded span, local and pulled, deduplicated by
// span ID, in trace order.
func (t *tracer) spans() []spanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []spanRec
	for _, id := range t.traces {
		seen := map[string]bool{}
		nodes := append(t.rec.Nodes(id), t.remote[id]...)
		for _, n := range nodes {
			if seen[n.SpanID] {
				continue
			}
			seen[n.SpanID] = true
			out = append(out, spanRec{TraceID: id.String(), SpanID: n.SpanID, Parent: n.Parent, Name: n.Name, Start: n.Start, End: n.End})
		}
	}
	return out
}

// countSpans counts the spans with the given name.
func countSpans(spans []spanRec, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// spanTotalMS sums the durations of the spans with the given name.
func spanTotalMS(spans []spanRec, name string) float64 {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.End.Sub(s.Start)
		}
	}
	return float64(d) / float64(time.Millisecond)
}

// spanFile is the JSON document a traced run writes.
type spanFile struct {
	Stamp stamp `json:"stamp"`
	// SelfMS is the summed self time per span name, in milliseconds.
	SelfMS map[string]float64 `json:"self_ms"`
	// Count is the number of spans per name.
	Count map[string]int `json:"count"`
	Spans []spanRec      `json:"spans"`
}

// writeSpans writes the traced run's spans and per-name self times to
// path, creating its directory.
func writeSpans(path string, st stamp, spans []spanRec) error {
	self := selfTimes(spans)
	f := spanFile{Stamp: st, SelfMS: map[string]float64{}, Count: map[string]int{}, Spans: spans}
	for name, d := range self {
		f.SelfMS[name] = float64(d) / float64(time.Millisecond)
	}
	for _, s := range spans {
		f.Count[s.Name]++
	}
	sort.SliceStable(f.Spans, func(i, j int) bool { return f.Spans[i].Start.Before(f.Spans[j].Start) })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
