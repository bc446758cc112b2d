package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/minoskv/minos/internal/client"
	"github.com/minoskv/minos/internal/kv"
	"github.com/minoskv/minos/internal/nic"
	"github.com/minoskv/minos/internal/workload"
)

// udpWorkers is the closed loop's concurrency: two callers, each waiting
// for its reply before sending the next request.
const udpWorkers = 2

// bindUDP binds a 2-queue UDP server on loopback at a free pair of
// consecutive ports. The base port is drawn at random below the kernel's
// ephemeral range and retried on collision, so back-to-back or
// concurrent runs never share a port. The draw is not seeded: ports are
// not an input of the workload.
func bindUDP() (*nic.UDPServer, int, error) {
	var err error
	for try := 0; try < 64; try++ {
		base := 10_000 + rand.Intn(22_000)
		var st *nic.UDPServer
		if st, err = nic.NewUDPServer("127.0.0.1", base, 2); err == nil {
			return st, base, nil
		}
	}
	return nil, 0, fmt.Errorf("no free UDP port pair: %w", err)
}

func bootUDPNode(cat *workload.Catalog, seed int64) (*node, error) {
	st, base, err := bindUDP()
	if err != nil {
		return nil, err
	}
	tr, err := nic.NewUDPClient("127.0.0.1", base)
	if err != nil {
		st.Close()
		return nil, err
	}
	return bootNode(st, tr, cat, 0, seed)
}

// closedLoop runs udpWorkers callers against n for warm+window and
// measures the window. Latency runs from the submit call to
// Call.DoneAt; gen.wait is the caller's own time between one
// completion and the next submit.
func closedLoop(n *node, cat *workload.Catalog, zipf *workload.Zipf, vals *values, seed int64, warm, window time.Duration, trace bool) (*phaseResult, []*tracer) {
	start := time.Now()
	measured := start.Add(warm)
	end := measured.Add(window)
	results := make([]*phaseResult, udpWorkers)
	proc := sampleProc()
	var wg sync.WaitGroup
	for w := range results {
		res := newPhase(measured, window, trace)
		if trace {
			res.tr.lane = uint64(w)
		}
		results[w] = res
		gen := workload.NewGeneratorWithZipf(cat, zipf, seed+int64(w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			callLoop(n, gen, vals, res, measured.UnixNano(), end.UnixNano())
		}()
	}
	wg.Wait()
	res := results[0]
	res.proc = proc
	tracers := []*tracer{res.tr}
	for _, o := range results[1:] {
		res.merge(o)
		tracers = append(tracers, o.tr)
	}
	return res, tracers
}

// callLoop is one closed-loop caller.
func callLoop(n *node, gen *workload.Generator, vals *values, res *phaseResult, measured, end int64) {
	var key []byte
	var seq uint64
	prev := time.Now().UnixNano()
	for {
		sub0 := time.Now().UnixNano()
		if sub0 >= end {
			return
		}
		r := gen.Next()
		key = kv.AppendKeyForID(key[:0], r.Key)
		get := r.Op == workload.OpGet
		var c *client.Call
		if get {
			c = n.pipe.GetAsync(key)
		} else {
			c = n.pipe.PutAsync(key, vals.stampFor(r.Key))
		}
		sub1 := time.Now().UnixNano()
		<-c.Done()
		v, err := c.Value()
		if err == nil && get {
			err = vals.checkValue(r.Key, v)
		}
		res.attempted++
		seq++
		if err != nil {
			res.fail(err)
			prev = time.Now().UnixNano()
			continue
		}
		done := c.DoneAt().UnixNano()
		if sub0 >= measured {
			lat := done - sub0
			op := res.put
			if get {
				op = res.get
			}
			if res.small.record(sub0, lat) {
				op.record(sub0, lat)
				res.ops++
				res.late.Record(sub0 - prev)
				res.submit.Record(sub1 - sub0)
				res.rtt.Record(lat)
				if res.tr.sampled(seq) {
					res.tr.add(seq, spanRequest, spanRequest, prev, done)
					res.tr.add(seq, spanGenWait, spanRequest, prev, sub0)
					res.tr.add(seq, spanSubmit, spanRequest, sub0, sub1)
					res.tr.add(seq, spanWait, spanRequest, sub1, done)
				}
			}
		}
		prev = done
	}
}

func runUDPSmall(cfg config) (*report, error) {
	cat := workload.NewCatalog(profileFor(cfg, 0.95, false))
	vals := newValues(cat)
	zipf := workload.NewZipf(cat.NumRegularKeys(), cat.Profile().ZipfTheta)
	n, setupS, err := timeSetup(setupReps, func() (*node, error) { return bootUDPNode(cat, cfg.seed) }, (*node).close)
	if err != nil {
		return nil, err
	}
	defer n.close()
	rep := &report{trace: cfg.trace}
	window := seconds(cfg.seconds)
	warm := min(time.Second, window/2)
	if cfg.trace {
		window /= 2
	}
	res, _ := closedLoop(n, cat, zipf, vals, cfg.seed+1, warm, window, false)
	e2ePhase(rep, res, setupS, window)
	if !cfg.trace {
		return rep, nil
	}
	traced, tracers := closedLoop(n, cat, zipf, vals, cfg.seed+3, 0, window, true)
	rep.tally(traced)
	pipelineLayers(rep, traced, res, n)
	rep.layer("nic.drops", "count", 0) // UDP loss shows as client.timeouts
	if err := spanReport(rep, outDir(), spanStem(cfg), tracers...); err != nil {
		return nil, err
	}
	return rep, ladder(rep, cfg, cat, vals, workload.NewGeneratorWithZipf(cat, zipf, cfg.seed+4), n, nil, true)
}
