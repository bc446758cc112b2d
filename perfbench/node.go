package main

import (
	"context"
	"fmt"
	"sync"

	"github.com/minoskv/minos/internal/client"
	"github.com/minoskv/minos/internal/core"
	"github.com/minoskv/minos/internal/kv"
	"github.com/minoskv/minos/internal/nic"
	"github.com/minoskv/minos/internal/server"
	"github.com/minoskv/minos/internal/workload"
)

// setupReps is how many times each run boots its fleet; setup_s is the
// median.
const setupReps = 5

// node is one Minos server with a pipelined client attached to it.
type node struct {
	srv  *server.Server
	st   nic.ServerTransport
	tr   nic.ClientTransport
	pipe *client.Pipeline

	plans planCounter
}

// bootNode starts a 2-core Minos server over st, preloads cat, attaches a
// pipeline over tr and makes one round trip.
func bootNode(st nic.ServerTransport, tr nic.ClientTransport, cat *workload.Catalog, window int, seed int64) (*node, error) {
	srv, err := server.New(server.Config{Design: server.Minos, Cores: 2}, st)
	if err != nil {
		tr.Close()
		st.Close()
		return nil, err
	}
	n := &node{srv: srv, st: st, tr: tr}
	p := srv.Plan()
	n.plans.last = planKey{p.Threshold, p.NumSmall, p.Standby}
	srv.OnPlan(func(p core.Plan) { n.plans.observe(planKey{p.Threshold, p.NumSmall, p.Standby}) })
	server.Preload(srv.Store(), cat)
	srv.Start()
	n.pipe = client.NewPipeline(tr, 2, client.PipelineConfig{Window: window, Seed: seed})
	if _, err := n.pipe.Get(context.Background(), kv.KeyForID(0)); err != nil {
		n.close()
		return nil, fmt.Errorf("first round trip: %w", err)
	}
	return n, nil
}

// planKey is what a plan decides: the threshold and the core split.
type planKey struct {
	threshold int64
	small     int
	standby   bool
}

// planCounter counts published plans that changed the planKey.
type planCounter struct {
	mu   sync.Mutex
	last planKey
	n    int
}

func (c *planCounter) observe(k planKey) {
	c.mu.Lock()
	if k != c.last {
		c.n++
	}
	c.last = k
	c.mu.Unlock()
}

func (c *planCounter) changes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (n *node) close() {
	if n.pipe != nil {
		n.pipe.Close()
	}
	n.srv.Stop()
	n.tr.Close()
	n.st.Close()
}

// serverLayer adds the server.* counters of n.
func (n *node) serverLayer(r *report) {
	st := n.srv.Stats()
	var maxOps, sum float64
	for _, c := range st.PerCore {
		maxOps = max(maxOps, float64(c.Ops))
		sum += float64(c.Ops)
	}
	r.layer("server.core_skew", "ratio", ratio(maxOps, sum/float64(len(st.PerCore))))
	r.layer("server.plan_changes", "count", float64(n.plans.changes()))
	r.layer("server.small_cores", "count", float64(st.Plan.NumSmall))
	r.layer("server.threshold_bytes", "B", float64(st.Plan.Threshold))
	r.layer("server.sw_drops", "count", float64(st.SwDrops))
	r.layer("server.bad_frames", "count", float64(st.BadFrames))
}

// clientLayer adds the client.* counters of p.
func clientLayer(r *report, p *client.Pipeline) {
	st := p.Stats()
	r.layer("client.timeouts", "count", float64(st.TimedOut))
	r.layer("client.stale", "count", float64(st.Stale))
	r.layer("client.bad_frames", "count", float64(st.BadFrames))
}

// pipelineLayers adds the per-layer metrics of a traced phase driven
// through n's pipeline, against the untraced phase before it.
func pipelineLayers(rep *report, traced, untraced *phaseResult, n *node) {
	goLayer(rep, traced.proc, traced.ops)
	lateLayers(rep, traced)
	rep.layerN("client.submit_ns", "ns", float64(traced.submit.P50()), traced.submit.Count())
	rep.layerN("client.rtt_p50_us", "us", float64(traced.rtt.P50())/1e3, traced.rtt.Count())
	rep.layerN("client.rtt_p99_us", "us", float64(traced.rtt.P99())/1e3, traced.rtt.Count())
	overhead(rep, traced, untraced)
	clientLayer(rep, n.pipe)
	n.serverLayer(rep)
}

// lateLayers adds how late the load generator issued requests in a traced phase.
func lateLayers(rep *report, traced *phaseResult) {
	rep.layerN("gen.late_p50_us", "us", float64(traced.late.P50())/1e3, traced.late.Count())
	rep.layerN("gen.late_p99_us", "us", float64(traced.late.P99())/1e3, traced.late.Count())
}

// overhead adds the tracing overhead: the change of the small-request
// median between the untraced phase and the traced one.
func overhead(rep *report, traced, untraced *phaseResult) {
	base := untraced.small.quantileUs(0.5)
	rep.layer("trace.overhead_pct", "%", 100*ratio(traced.small.quantileUs(0.5)-base, base))
}
