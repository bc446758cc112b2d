package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/minoskv/minos/internal/apierr"
	"github.com/minoskv/minos/internal/stats"
	"github.com/minoskv/minos/internal/workload"
)

// numKeys scales the paper's 16M-key dataset to what one process holds
// beside its own load generator.
const numKeys = 100_000

// profileFor returns the paper's default mix (95:5 GET:PUT, zipf 0.99,
// 40/60 tiny/small) at numKeys keys, with large items at the paper's
// 10K/16M key ratio when large is set and none otherwise.
func profileFor(cfg config, getRatio float64, large bool) workload.Profile {
	p := workload.DefaultProfile()
	p.Name = cfg.workload
	p.Seed = cfg.seed
	p.GetRatio = getRatio
	p.NumKeys = max(1000, int(numKeys*cfg.scale))
	p.NumLargeKeys = 0
	p.PercentLarge = 0
	if large {
		p.NumLargeKeys = max(1, (p.NumKeys*10_000+8_000_000)/16_000_000)
		p.PercentLarge = 0.125
	}
	return p
}

// values holds the two contents an item may have: the preload filler
// (the same 'a'..'z' cycle server.Preload writes) and, once a PUT of the
// benchmark has landed, a pattern derived from the key.
type values struct {
	cat    *workload.Catalog
	filler []byte
	stamp  []byte
}

// stampSpan is how many distinct key-derived offsets the stamp pattern
// has; the pattern is random bytes, so two keys share content only when
// their offsets collide.
const stampSpan = 4096

func newValues(cat *workload.Catalog) *values {
	maxSize := 0
	for id := 0; id < cat.NumKeys(); id++ {
		maxSize = max(maxSize, cat.Size(uint64(id)))
	}
	v := &values{cat: cat, filler: make([]byte, maxSize), stamp: make([]byte, maxSize+stampSpan)}
	for i := range v.filler {
		v.filler[i] = byte('a' + i%26)
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range v.stamp {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v.stamp[i] = byte(x)
	}
	return v
}

// stampFor is the value a benchmark PUT writes for key id.
func (v *values) stampFor(id uint64) []byte {
	off := (id * 2654435761) % stampSpan
	return v.stamp[off : off+uint64(v.cat.Size(id))]
}

// check verifies a GET result for key id: the catalogued length and one
// of the two legal contents. A miss is legal only when missOK (a
// memory-capped store evicts).
func (v *values) check(id uint64, val []byte, err error, missOK bool) error {
	if err != nil {
		if missOK && errors.Is(err, apierr.ErrNotFound) {
			return nil
		}
		return err
	}
	return v.checkValue(id, val)
}

func (v *values) checkValue(id uint64, val []byte) error {
	want := v.cat.Size(id)
	if len(val) != want {
		return fmt.Errorf("key %d: value of %d bytes, catalogue says %d", id, len(val), want)
	}
	if !bytes.Equal(val, v.filler[:want]) && !bytes.Equal(val, v.stampFor(id)) {
		return fmt.Errorf("key %d: value content is neither the preload filler nor the key's stamp", id)
	}
	return nil
}

// latencies is a fixed-size recorder: one histogram for the measured
// window plus one per sub-window, all allocated up front so recording
// never grows the benchmark's heap.
type latencies struct {
	start, width int64
	all          *stats.Histogram
	wins         []*stats.Histogram
}

// subWindow is the length of the sub-windows whose median tail is
// reported; half a second holds thousands of requests in every workload.
const subWindow = 500 * time.Millisecond

func newLatencies(start time.Time, window time.Duration) *latencies {
	n := max(1, int(window/subWindow))
	l := &latencies{start: start.UnixNano(), width: int64(window) / int64(n), all: stats.NewLatencyHistogram()}
	for i := 0; i < n; i++ {
		l.wins = append(l.wins, stats.NewLatencyHistogram())
	}
	return l
}

// record adds one latency for a request that was due (or sent) at at;
// requests outside the measured window are ignored.
func (l *latencies) record(at, lat int64) bool {
	i := (at - l.start) / l.width
	if at < l.start || i >= int64(len(l.wins)) {
		return false
	}
	l.all.Record(lat)
	l.wins[i].Record(lat)
	return true
}

// quantileUs is the q-quantile over the whole window, in µs.
func (l *latencies) quantileUs(q float64) float64 { return float64(l.all.Quantile(q)) / 1e3 }

// medianWindowUs is the median over sub-windows of each one's
// q-quantile, in µs: a stall of the box lands in one sub-window and
// moves the median much less than it moves the whole-window tail.
func (l *latencies) medianWindowUs(q float64) float64 {
	v := make([]int64, 0, len(l.wins))
	for _, h := range l.wins {
		if h.Count() > 0 {
			v = append(v, h.Quantile(q))
		}
	}
	if len(v) == 0 {
		return 0
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	if len(v)%2 == 1 {
		return float64(v[len(v)/2]) / 1e3
	}
	return float64(v[len(v)/2-1]+v[len(v)/2]) / 2e3
}

// timeSetup runs setup reps times, tearing down all but the last fleet,
// and returns the last fleet with the median set-up time in seconds.
func timeSetup[F any](reps int, setup func() (F, error), teardown func(F)) (F, float64, error) {
	var f F
	d := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		f, err = setup()
		if err != nil {
			return f, 0, err
		}
		d = append(d, time.Since(t0).Seconds())
		if i < reps-1 {
			teardown(f)
		}
	}
	sort.Float64s(d)
	return f, d[len(d)/2], nil
}

// merge adds o's observations into l; both cover the same window.
func (l *latencies) merge(o *latencies) {
	l.all.Merge(o.all)
	for i, h := range o.wins {
		l.wins[i].Merge(h)
	}
}
