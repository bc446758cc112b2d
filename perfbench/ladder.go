package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/minoskv/minos/internal/client"
	"github.com/minoskv/minos/internal/kv"
	"github.com/minoskv/minos/internal/mem"
	"github.com/minoskv/minos/internal/nic"
	"github.com/minoskv/minos/internal/server"
	"github.com/minoskv/minos/internal/wire"
	"github.com/minoskv/minos/internal/workload"
)

// ladderOps is how many requests of the workload's stream each rung
// replays.
const ladderOps = 4000

// rungs are the medians the ladder measured, in ns.
type rungs struct {
	kvFind, kvPut                   float64
	encSmall, encLarge, reasmLarge  float64
	framesPerLarge                  float64
	fabricEcho, udpEcho             float64
	clientRTT                       float64
	clusterGet, clusterPut, respGet float64
}

// ladder times one rung per layer on the workload's own requests, after
// the timed phase: kv → wire → nic echo → client round trip → cluster
// op → RESP round trip. Each rung adds one layer to the one below, so a
// layer's self time is its rung minus the rung below. n is the
// workload's node (nil: the ladder boots a fabric node) and f its
// cluster (nil: the ladder boots a durable one and reports its cluster,
// RESP and WAL counters too).
func ladder(rep *report, cfg config, cat *workload.Catalog, vals *values, gen *workload.Generator, n *node, f *fleet, udp bool) error {
	reqs := make([]workload.Request, max(200, int(ladderOps*cfg.scale)))
	for i := range reqs {
		reqs[i] = gen.Next()
	}
	var g rungs
	kvRung(&g, cat, vals, reqs)
	wireRung(&g, vals, reqs)
	var err error
	if g.fabricEcho, err = fabricEcho(reqs); err != nil {
		return err
	}
	if g.udpEcho, err = udpEcho(reqs); err != nil {
		return err
	}
	if n == nil {
		fab := nic.NewFabric(2)
		if n, err = bootNode(fab.Server(), fab.NewClient(), cat, 0, cfg.seed); err != nil {
			return err
		}
		defer n.close()
		submit, rtt, err := clientRung(n, vals, reqs)
		if err != nil {
			return err
		}
		n := uint64(len(rtt))
		rep.layerN("client.submit_ns", "ns", exactMedian(submit), n)
		rep.layerN("client.rtt_p50_us", "us", exactMedian(rtt)/1e3, n)
		rep.layerN("client.rtt_p99_us", "us", float64(exactQuantile(rtt, 0.99))/1e3, n)
		g.clientRTT = exactMedian(rtt)
	} else {
		_, rtt, err := clientRung(n, vals, reqs)
		if err != nil {
			return err
		}
		g.clientRTT = exactMedian(rtt)
	}
	own := f == nil
	if own {
		root, err := os.MkdirTemp(outDir(), "wal-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(root)
		keys := make([]uint64, len(reqs))
		for i, r := range reqs {
			keys[i] = r.Key
		}
		if f, err = bootFleet(cat, vals, cfg, root, 0, keys); err != nil {
			return err
		}
		defer f.close()
	}
	before := f.sample()
	puts, putBytes, err := clusterRung(&g, f, vals, reqs)
	if err != nil {
		return err
	}
	after := f.sample()
	if err := respRung(&g, f, vals, reqs); err != nil {
		return err
	}
	if own {
		fleetLayers(rep, f, before, after, float64(len(reqs)-puts), float64(puts), putBytes)
		rep.layer("resp.replies_per_read", "count", 1) // the RESP rung waits for each reply
		rep.layer("wal.lag_bytes_max", "B", float64(f.lagBytes()))
	}
	echo := g.fabricEcho
	if udp {
		echo = g.udpEcho
	}
	rep.layer("kv.find_ns", "ns", g.kvFind)
	rep.layer("kv.put_ns", "ns", g.kvPut)
	rep.layer("wire.encode_small_ns", "ns", g.encSmall)
	rep.layer("wire.encode_large_ns", "ns", g.encLarge)
	rep.layer("wire.reasm_large_ns", "ns", g.reasmLarge)
	rep.layer("wire.frames_per_large", "count", g.framesPerLarge)
	rep.layer("nic.fabric_echo_ns", "ns", g.fabricEcho)
	rep.layer("nic.udp_echo_ns", "ns", g.udpEcho)
	serverSelf := g.clientRTT - echo - g.encSmall - g.kvFind
	rep.layer("server.self_p50_us", "us", serverSelf/1e3)
	rep.layer("cluster.get_p50_us", "us", g.clusterGet/1e3)
	rep.layer("cluster.put_p50_us", "us", g.clusterPut/1e3)
	rep.layer("resp.self_p50_us", "us", (g.respGet-g.clusterGet)/1e3)
	rep.note("ladder (p50, one request in flight; self = rung minus the rung below):")
	rep.note("  kv.find          %9.0f ns  self %9.0f ns", g.kvFind, g.kvFind)
	rep.note("  wire.encode      %9.0f ns  self %9.0f ns", g.kvFind+g.encSmall, g.encSmall)
	rep.note("  nic.echo         %9.0f ns  self %9.0f ns", g.kvFind+g.encSmall+echo, echo)
	rep.note("  client.rtt       %9.0f ns  self %9.0f ns (server)", g.clientRTT, serverSelf)
	rep.note("  cluster.get      %9.0f ns  self %9.0f ns", g.clusterGet, g.clusterGet-g.clientRTT)
	rep.note("  resp.get         %9.0f ns  self %9.0f ns", g.respGet, g.respGet-g.clusterGet)
	return nil
}

// fleetLayers adds the kv, cluster and WAL counters of f between two
// samples taken around gets GETs and puts PUTs of putBytes user bytes.
func fleetLayers(r *report, f *fleet, before, after walSample, gets, puts float64, putBytes int64) {
	hits := float64(after.hits - before.hits)
	r.layer("kv.hit_ratio", "ratio", ratio(hits, hits+float64(after.misses-before.misses)))
	r.layer("kv.evicted_per_put", "count", ratio(float64(after.evicted-before.evicted), puts))
	r.layer("kv.mem_per_user_byte", "ratio", ratio(float64(after.memBytes), float64(after.valueBytes)))
	r.layer("wal.records_per_put", "count", ratio(float64(after.appended-before.appended), puts))
	r.layer("wal.disk_bytes_per_user_byte", "ratio", ratio(float64(after.diskBytes-before.diskBytes), float64(putBytes)))
	r.layer("wal.fsyncs", "count", float64(after.fsyncs-before.fsyncs))
	r.layer("wal.stalls", "count", float64(after.stalls-before.stalls))
	hedged := float64(after.hedged - before.hedged)
	r.layer("cluster.hedged_frac", "ratio", ratio(hedged, gets))
	r.layer("cluster.hedge_win_frac", "ratio", ratio(float64(after.wins-before.wins), hedged))
	r.layer("cluster.failovers", "count", float64(after.fails-before.fails))
	r.layer("cluster.hints_queued", "count", float64(after.hints-before.hints))
	r.layer("cluster.node_p99_max_us", "us", float64(f.cl.Stats().MaxNodeP99)/1e3)
}

// batchMedian times fn over consecutive batches of size items and
// returns the median per-item time in ns; timing batches keeps the
// clock read out of sub-100ns operations.
func batchMedian(items, size int, fn func(i int)) float64 {
	if size <= 0 {
		return 0
	}
	var per []int64
	for lo := 0; lo+size <= items; lo += size {
		t0 := time.Now()
		for i := lo; i < lo+size; i++ {
			fn(i)
		}
		per = append(per, int64(time.Since(t0))/int64(size))
	}
	return float64(exactQuantile(per, 0.5))
}

func exactMedian(v []int64) float64 { return float64(exactQuantile(v, 0.5)) }

// kvRung replays the stream on a private store holding the whole
// catalogue.
func kvRung(g *rungs, cat *workload.Catalog, vals *values, reqs []workload.Request) {
	store, err := kv.NewStore(kv.Config{})
	if err != nil {
		panic(err) // the default configuration is valid
	}
	server.Preload(store, cat)
	var gets, puts [][]byte
	var putVals [][]byte
	for _, r := range reqs {
		if r.Op == workload.OpGet {
			gets = append(gets, kv.KeyForID(r.Key))
		} else {
			puts = append(puts, kv.KeyForID(r.Key))
			putVals = append(putVals, vals.stampFor(r.Key))
		}
	}
	var sink atomic.Pointer[kv.Item]
	g.kvFind = batchMedian(len(gets), 32, func(i int) {
		it, _ := store.Find(gets[i])
		sink.Store(it)
	})
	g.kvPut = batchMedian(len(puts), min(32, len(puts)), func(i int) { store.Put(puts[i], putVals[i]) })
}

// wireRung encodes each request's reply the way a server core does, and
// reassembles the large ones the way the client receiver does.
func wireRung(g *rungs, vals *values, reqs []workload.Request) {
	var small, large []wire.Message
	for i, r := range reqs {
		m := wire.Message{Op: wire.OpGetReply, ReqID: uint64(i), Key: kv.KeyForID(r.Key), Value: vals.filler[:r.Size]}
		if r.Class == workload.ClassLarge {
			large = append(large, m)
		} else {
			small = append(small, m)
		}
	}
	var frames []*mem.Buf
	encode := func(m *wire.Message) {
		frames = m.LeaseFrames(frames[:0])
		for _, b := range frames {
			b.Release()
		}
	}
	g.encSmall = batchMedian(len(small), 32, func(i int) { encode(&small[i]) })
	if len(large) == 0 {
		return
	}
	g.encLarge = batchMedian(len(large), 1, func(i int) { encode(&large[i]) })
	reasm := wire.NewReassembler(0)
	var out wire.Message
	var total int
	var per []int64
	for i := range large {
		fr := large[i].Frames()
		total += len(fr)
		t0 := time.Now()
		for _, b := range fr {
			if _, err := reasm.AddInto(0, b, &out); err != nil {
				panic(err) // frames this process just encoded
			}
		}
		per = append(per, int64(time.Since(t0)))
		out.Reset()
	}
	g.reasmLarge = exactMedian(per)
	g.framesPerLarge = float64(total) / float64(len(large))
}

// echoRounds is how many one-frame round trips each echo rung makes.
const echoRounds = 1000

// echo times one small request frame to a bare loop that sends every
// frame straight back, with no server behind it. The loop spins with
// runtime.Gosched so that it adds no sleep of its own.
func echo(st nic.ServerTransport, tr nic.ClientTransport, reqs []workload.Request) (float64, error) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		frames := make([]nic.Frame, 32)
		for !stop.Load() {
			n := st.Recv(0, frames)
			for i := 0; i < n; i++ {
				buf := frames[i].TakeBuf()
				if buf == nil {
					buf = mem.Static(frames[i].Data)
				}
				_ = st.Send(0, frames[i].Src, buf)
			}
			if n == 0 {
				runtime.Gosched()
			}
		}
	}()
	defer func() { stop.Store(true); wg.Wait() }()
	in := [][]byte{make([]byte, wire.MTU)}
	var frames []*mem.Buf
	rtt := make([]int64, 0, echoRounds)
	for i := 0; i < echoRounds; i++ {
		r := reqs[i%len(reqs)]
		m := wire.Message{Op: wire.OpGetRequest, ReqID: uint64(i), Key: kv.KeyForID(r.Key)}
		frames = m.LeaseFrames(frames[:0])
		t0 := time.Now()
		if err := tr.SendBatch(0, frames); err != nil {
			return 0, err
		}
		in[0] = in[0][:cap(in[0])]
		if tr.RecvBatch(in, time.Second) != 1 {
			return 0, fmt.Errorf("echo round trip %d lost", i)
		}
		rtt = append(rtt, int64(time.Since(t0)))
	}
	return exactMedian(rtt), nil
}

func fabricEcho(reqs []workload.Request) (float64, error) {
	fab := nic.NewFabric(1)
	return echo(fab.Server(), fab.NewClient(), reqs)
}

func udpEcho(reqs []workload.Request) (float64, error) {
	st, base, err := bindUDP()
	if err != nil {
		return 0, err
	}
	defer st.Close()
	tr, err := nic.NewUDPClient("127.0.0.1", base)
	if err != nil {
		return 0, err
	}
	defer tr.Close()
	return echo(st, tr, reqs)
}

// clientRung makes the requests one at a time through n's pipeline and
// returns each submit call's and each round trip's duration.
func clientRung(n *node, vals *values, reqs []workload.Request) (submit, rtt []int64, err error) {
	var key []byte
	for _, r := range reqs {
		key = kv.AppendKeyForID(key[:0], r.Key)
		t0 := time.Now()
		var c *client.Call
		if r.Op == workload.OpGet {
			c = n.pipe.GetAsync(key)
		} else {
			c = n.pipe.PutAsync(key, vals.stampFor(r.Key))
		}
		t1 := time.Now()
		<-c.Done()
		v, err := c.Value()
		if err == nil && r.Op == workload.OpGet {
			err = vals.checkValue(r.Key, v)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("client rung: %w", err)
		}
		submit = append(submit, int64(t1.Sub(t0)))
		rtt = append(rtt, int64(c.DoneAt().Sub(t0)))
	}
	return submit, rtt, nil
}

// clusterRung makes the requests one at a time through the cluster's
// Get and Put and returns the PUT count and their user bytes.
func clusterRung(g *rungs, f *fleet, vals *values, reqs []workload.Request) (int, int64, error) {
	var gets, puts []int64
	var putBytes int64
	ctx := context.Background()
	for _, r := range reqs {
		key := kv.KeyForID(r.Key)
		t0 := time.Now()
		if r.Op == workload.OpGet {
			v, err := f.cl.Get(ctx, key)
			d := int64(time.Since(t0))
			if err := vals.check(r.Key, v, err, f.capped); err != nil {
				return 0, 0, fmt.Errorf("cluster rung: %w", err)
			}
			gets = append(gets, d)
			continue
		}
		v := vals.stampFor(r.Key)
		if err := f.cl.Put(ctx, key, v); err != nil {
			return 0, 0, fmt.Errorf("cluster rung: %w", err)
		}
		puts = append(puts, int64(time.Since(t0)))
		putBytes += int64(len(key) + len(v))
	}
	g.clusterGet = exactMedian(gets)
	g.clusterPut = exactMedian(puts)
	return len(puts), putBytes, nil
}

// respRung sends the GETs one at a time over a RESP connection.
func respRung(g *rungs, f *fleet, vals *values, reqs []workload.Request) error {
	c := f.conns[0]
	var w []byte
	r := make([]byte, 0, 1<<20)
	var per []int64
	for _, req := range reqs {
		if req.Op != workload.OpGet {
			continue
		}
		w = append(w[:0], "*2\r\n$3\r\nGET\r\n$8\r\n"...)
		w = append(w, kv.KeyForID(req.Key)...)
		w = append(w, "\r\n"...)
		t0 := time.Now()
		if _, err := c.Write(w); err != nil {
			return err
		}
		r = r[:0]
		for {
			if len(r) == cap(r) {
				r = append(r, 0)[:len(r)]
			}
			m, err := c.Read(r[len(r):cap(r)])
			if err != nil {
				return fmt.Errorf("RESP rung: %w", err)
			}
			r = r[:len(r)+m]
			val, kind, used, perr := parseReply(r)
			if perr == errShort {
				continue
			}
			if perr == nil && used != len(r) {
				perr = fmt.Errorf("%d bytes after the reply", len(r)-used)
			}
			if perr == nil {
				perr = replyErr(inflightCmd{id: req.Key, get: true}, val, kind, vals, f.capped)
			}
			if perr != nil {
				return fmt.Errorf("RESP rung: %w", perr)
			}
			break
		}
		per = append(per, int64(time.Since(t0)))
	}
	g.respGet = exactMedian(per)
	return nil
}
