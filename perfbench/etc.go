package main

import (
	"runtime"
	"sync"
	"time"

	"github.com/minoskv/minos/internal/client"
	"github.com/minoskv/minos/internal/kv"
	"github.com/minoskv/minos/internal/nic"
	"github.com/minoskv/minos/internal/workload"
)

// etcRate is the open-loop arrival rate: about a third of the 150–250
// kop/s a 2-core node sustains closed-loop on a 2-vCPU box, so the
// schedule, not saturation, sets the queueing.
const etcRate = 60_000

// etcWindow is the per-queue in-flight window: 4096 covers a 60 ms stall
// at etcRate, so the window never throttles the schedule.
const etcWindow = 4096

// issued is one submitted request on its way from the generator to the
// collector.
type issued struct {
	call              *client.Call
	due, sub0, sub1   int64
	id                uint64
	seq               uint64
	get, large, trace bool
}

// openLoop runs Poisson arrivals at rate against n for warm+window and
// measures the window. One goroutine generates, spinning to each due
// instant with runtime.Gosched (a 20µs time.Sleep takes about a
// millisecond on a small VM). Another collects completions in
// submission order. Latency runs from the scheduled arrival to
// Call.DoneAt, so neither the generator's lateness nor the collector's
// order hides a stall.
func openLoop(n *node, gen *workload.Generator, vals *values, rate float64, seed int64, warm, window time.Duration, trace bool) *phaseResult {
	start := time.Now()
	measured := start.Add(warm)
	res := newPhase(measured, window, trace)
	// The queue holds a second of arrivals, so a collector waiting out a
	// slow reply never blocks the generator's schedule.
	ch := make(chan issued, 1<<16)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		collect(ch, vals, res, measured.UnixNano())
	}()
	arr := workload.NewArrivals(rate, seed)
	end := measured.Add(window).UnixNano()
	due := start.UnixNano()
	var key []byte
	var seq uint64
	procTaken := false
	for {
		due += int64(arr.ExpGap())
		if due >= end {
			break
		}
		now := time.Now().UnixNano()
		for ; now < due; now = time.Now().UnixNano() {
			runtime.Gosched()
		}
		if !procTaken && due >= measured.UnixNano() {
			res.proc = sampleProc()
			procTaken = true
		}
		r := gen.Next()
		key = kv.AppendKeyForID(key[:0], r.Key)
		var c *client.Call
		if r.Op == workload.OpGet {
			c = n.pipe.GetAsync(key)
		} else {
			c = n.pipe.PutAsync(key, vals.stampFor(r.Key))
		}
		sub1 := time.Now().UnixNano()
		seq++
		ch <- issued{call: c, due: due, sub0: now, sub1: sub1, id: r.Key, seq: seq,
			get: r.Op == workload.OpGet, large: r.Class == workload.ClassLarge, trace: res.tr.sampled(seq)}
	}
	close(ch)
	wg.Wait()
	return res
}

// collect waits for each issued request in order, verifies it and
// records its latencies.
func collect(ch <-chan issued, vals *values, res *phaseResult, measured int64) {
	for it := range ch {
		<-it.call.Done()
		v, err := it.call.Value()
		if err == nil && it.get {
			err = vals.checkValue(it.id, v)
		}
		res.attempted++
		if err != nil {
			res.fail(err)
			continue
		}
		done := it.call.DoneAt().UnixNano()
		lat := done - it.due
		if it.due < measured {
			continue
		}
		cls, op := res.small, res.put
		if it.large {
			cls = res.large
		}
		if it.get {
			op = res.get
		}
		if !cls.record(it.due, lat) {
			continue
		}
		op.record(it.due, lat)
		res.ops++
		res.late.Record(it.sub0 - it.due)
		res.submit.Record(it.sub1 - it.sub0)
		res.rtt.Record(done - it.sub0)
		if it.trace {
			res.tr.add(it.seq, spanRequest, spanRequest, it.due, done)
			res.tr.add(it.seq, spanGenWait, spanRequest, it.due, it.sub0)
			res.tr.add(it.seq, spanSubmit, spanRequest, it.sub0, it.sub1)
			res.tr.add(it.seq, spanWait, spanRequest, it.sub1, done)
		}
	}
}

func runEtc(cfg config) (*report, error) {
	cat := workload.NewCatalog(profileFor(cfg, 0.95, true))
	vals := newValues(cat)
	zipf := workload.NewZipf(cat.NumRegularKeys(), cat.Profile().ZipfTheta)
	var fab *nic.Fabric
	n, setupS, err := timeSetup(setupReps, func() (*node, error) {
		fab = nic.NewFabric(2)
		return bootNode(fab.Server(), fab.NewClient(), cat, etcWindow, cfg.seed)
	}, (*node).close)
	if err != nil {
		return nil, err
	}
	defer n.close()
	rep := &report{trace: cfg.trace}
	window := seconds(cfg.seconds)
	warm := min(time.Second, window/2)
	rate := etcRate * cfg.scale
	gen := workload.NewGeneratorWithZipf(cat, zipf, cfg.seed+1)
	if cfg.trace {
		window /= 2
	}
	res := openLoop(n, gen, vals, rate, cfg.seed+2, warm, window, false)
	e2ePhase(rep, res, setupS, window)
	if !cfg.trace {
		return rep, nil
	}
	traced := openLoop(n, gen, vals, rate, cfg.seed+3, 0, window, true)
	rep.tally(traced)
	pipelineLayers(rep, traced, res, n)
	rep.layer("nic.drops", "count", float64(fab.Drops()))
	if err := spanReport(rep, outDir(), spanStem(cfg), traced.tr); err != nil {
		return nil, err
	}
	return rep, ladder(rep, cfg, cat, vals, gen, n, nil, false)
}
