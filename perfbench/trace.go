package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// spanName names a span recorded around a call into one layer.
type spanName uint8

const (
	spanRequest spanName = iota // the request root: due (or decided) to completion
	spanGenWait                 // due → submit: how late the load generator issued it
	spanSubmit                  // inside GetAsync/PutAsync
	spanWait                    // submit returned → DoneAt
	spanRESP                    // RESP command written → its reply parsed
	numSpanNames
)

var spanNames = [numSpanNames]string{"request", "gen.wait", "client.submit", "client.wait", "resp.cmd"}

// span is one recorded interval; the spans of one request share id, and
// parent names the span that contains this one.
type span struct {
	id         uint64
	name       spanName
	parent     spanName
	start, end int64
}

// traceEvery is the sampling period: one request in traceEvery is traced.
const traceEvery = 64

// tracer keeps sampled spans in a buffer allocated up front; once full it
// counts what it had to drop instead of growing. One goroutine owns each
// tracer.
type tracer struct {
	spans   []span
	dropped uint64
	// lane tells apart the load goroutines whose request sequence
	// numbers would otherwise collide as span ids.
	lane uint64
}

// maxSpans bounds one tracer's buffer (five spans per sampled request).
const maxSpans = 1 << 17

func newTracer() *tracer { return &tracer{spans: make([]span, 0, maxSpans)} }

// sampled reports whether request seq is traced; a nil tracer traces
// nothing.
func (t *tracer) sampled(seq uint64) bool { return t != nil && seq%traceEvery == 0 }

func (t *tracer) add(id uint64, name, parent spanName, start, end int64) {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{id*16 + t.lane, name, parent, start, end})
}

// spanStem names a run's span file; the pid keeps concurrent runs of one
// seed apart.
func spanStem(cfg config) string {
	return fmt.Sprintf("spans-%s-seed%d-%d", cfg.workload, cfg.seed, os.Getpid())
}

// spanReport writes every tracer's spans to dir as JSON lines and adds
// one note per span name with its median duration and median self time
// (duration minus the part its child spans cover).
func spanReport(r *report, dir, stem string, tracers ...*tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("span dir: %w", err)
	}
	path := filepath.Join(dir, stem+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	var all []span
	var dropped uint64
	for _, t := range tracers {
		all = append(all, t.spans...)
		dropped += t.dropped
	}
	for _, s := range all {
		parent := ""
		if s.name != spanRequest {
			parent = spanNames[s.parent]
		}
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"parent\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.id, spanNames[s.name], parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	// Children cover disjoint parts of their parent, so a parent's self
	// time is its duration minus the sum of its children's.
	type key struct {
		id   uint64
		name spanName
	}
	childNs := map[key]int64{}
	for _, s := range all {
		if s.name != spanRequest {
			childNs[key{s.id, s.parent}] += s.end - s.start
		}
	}
	var dur, self [numSpanNames][]int64
	for _, s := range all {
		d := s.end - s.start
		dur[s.name] = append(dur[s.name], d)
		self[s.name] = append(self[s.name], d-childNs[key{s.id, s.name}])
	}
	r.note("spans %d written to %s (1 request in %d sampled, %d dropped)", len(all), path, traceEvery, dropped)
	for n := spanName(0); n < numSpanNames; n++ {
		if len(dur[n]) == 0 {
			continue
		}
		sort.Slice(self[n], func(i, j int) bool { return self[n][i] < self[n][j] })
		r.note("span %-14s n=%-7d p50_us=%.2f self_p50_us=%.2f", spanNames[n], len(dur[n]),
			float64(exactQuantile(dur[n], 0.5))/1e3, float64(exactQuantile(self[n], 0.5))/1e3)
	}
	r.layer("trace.spans", "count", float64(len(all)))
	return nil
}
