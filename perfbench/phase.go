package main

import (
	"time"

	"github.com/minoskv/minos/internal/stats"
)

// phaseResult is what one measured phase of a workload recorded.
type phaseResult struct {
	small, large, get, put *latencies
	late, submit, rtt      *stats.Histogram
	ops                    uint64 // completed in the measured window
	attempted, failed      uint64
	firstErr               error
	proc                   procSample
	tr                     *tracer
}

func newPhase(measured time.Time, window time.Duration, trace bool) *phaseResult {
	res := &phaseResult{
		small: newLatencies(measured, window), large: newLatencies(measured, window),
		get: newLatencies(measured, window), put: newLatencies(measured, window),
		late: stats.NewLatencyHistogram(), submit: stats.NewLatencyHistogram(), rtt: stats.NewLatencyHistogram(),
	}
	if trace {
		res.tr = newTracer()
	}
	return res
}

// fail counts one failed operation, keeping the first error for the
// report.
func (res *phaseResult) fail(err error) {
	res.failed++
	if res.firstErr == nil {
		res.firstErr = err
	}
}

// merge adds o's observations into res; both cover the same window.
// Spans stay with their tracer.
func (res *phaseResult) merge(o *phaseResult) {
	res.small.merge(o.small)
	res.large.merge(o.large)
	res.get.merge(o.get)
	res.put.merge(o.put)
	res.late.Merge(o.late)
	res.submit.Merge(o.submit)
	res.rtt.Merge(o.rtt)
	res.ops += o.ops
	res.attempted += o.attempted
	res.failed += o.failed
	if res.firstErr == nil {
		res.firstErr = o.firstErr
	}
}

// tally counts a phase's attempts and failures into the report; any
// failure makes the run incorrect.
func (r *report) tally(res *phaseResult) {
	r.attempted += res.attempted
	r.failed += res.failed
	if res.failed > 0 {
		r.correct = false
		r.note("first failure: %v", res.firstErr)
	}
}

// e2ePhase adds the end-to-end metrics of a measured phase.
func e2ePhase(rep *report, res *phaseResult, setupS float64, window time.Duration) {
	rep.correct = true
	rep.tally(res)
	rep.e2e("setup_s", "s", setupS, 0)
	rep.e2e("rss_mb", "MB", peakRSSMB(), 0)
	rep.e2e("kops", "kop/s", float64(res.ops)/window.Seconds()/1e3, 0)
	rep.e2e("small_p50_us", "us", res.small.medianWindowUs(0.5), res.small.all.Count())
	rep.e2e("small_p99_us", "us", res.small.medianWindowUs(0.99), res.small.all.Count())
	rep.e2e("get_p50_us", "us", res.get.medianWindowUs(0.5), res.get.all.Count())
	rep.e2e("get_p99_us", "us", res.get.medianWindowUs(0.99), res.get.all.Count())
	rep.e2e("put_p50_us", "us", res.put.medianWindowUs(0.5), res.put.all.Count())
	rep.e2e("put_p99_us", "us", res.put.medianWindowUs(0.99), res.put.all.Count())
	if n := res.large.all.Count(); n > 0 {
		rep.note("large_p50_us %.1f us (n=%d)", res.large.quantileUs(0.5), n)
		rep.note("large_p99_us %.1f us (n=%d)", res.large.quantileUs(0.99), n)
	}
	rep.note("whole-window small_p99_us %.1f us, get_p99_us %.1f us, put_p99_us %.1f us; gen.late_p99_us %.1f us",
		res.small.quantileUs(0.99), res.get.quantileUs(0.99), res.put.quantileUs(0.99), float64(res.late.P99())/1e3)
}
