package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"github.com/minoskv/minos"
	"github.com/minoskv/minos/internal/kv"
	"github.com/minoskv/minos/internal/workload"
)

const (
	clusterNodes = 3
	replicas     = 2
	// nodeCapBytes caps each node's store below its share of the
	// replicated dataset (≈28 MB of values per node at 100k keys), so
	// CLOCK eviction runs throughout; it scales with the dataset.
	nodeCapBytes = 20 << 20
	respConns    = 2
	// respDepth is how many commands each connection keeps pipelined.
	respDepth = 8
	// preloadWorkers fill the cluster in parallel during set-up.
	preloadWorkers = 4
)

// fleet is the cluster-rw deployment: durable capped nodes on a fabric,
// the replicated cluster over them and its RESP listener.
type fleet struct {
	fc      *minos.FabricCluster
	servers []*minos.Server
	plans   []*planCounter
	capped  bool
	cl      *minos.Cluster
	ln      net.Listener
	served  chan error
	conns   []net.Conn
	walDir  string
}

// bootFleet starts the nodes (each capped at capBytes, 0 for none), the
// cluster and its RESP front end, preloads the keys (nil: every key) with
// the filler value and dials the connections.
func bootFleet(cat *workload.Catalog, vals *values, cfg config, walDir string, capBytes int64, keys []uint64) (f *fleet, err error) {
	f = &fleet{walDir: walDir, served: make(chan error, 1), capped: capBytes > 0}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	fc := minos.NewFabricCluster(clusterNodes, 2)
	f.fc = fc
	var nodes []minos.ClusterNode
	for i := 0; i < clusterNodes; i++ {
		srv, err := minos.NewServer(fc.Node(i).Server(), minos.WithCores(2), minos.WithMemoryLimit(capBytes),
			minos.WithDurability(minos.DurabilityConfig{Dir: filepath.Join(walDir, fmt.Sprintf("node-%d", i))}))
		if err != nil {
			return f, err
		}
		p := srv.Plan()
		pc := &planCounter{last: planKey{p.Threshold, p.NumSmall, p.Standby}}
		srv.OnPlan(func(p minos.Plan) { pc.observe(planKey{p.Threshold, p.NumSmall, p.Standby}) })
		srv.Start()
		f.servers = append(f.servers, srv)
		f.plans = append(f.plans, pc)
		nodes = append(nodes, minos.ClusterNode{Name: fmt.Sprintf("node-%d", i), Transport: fc.Node(i).NewClient(), Server: srv})
	}
	f.cl, err = minos.NewCluster(nodes, minos.WithReplication(replicas),
		minos.WithNodeOptions(minos.WithQueues(2)), minos.WithClusterSeed(uint64(cfg.seed)))
	if err != nil {
		return f, err
	}
	if keys == nil {
		keys = make([]uint64, cat.NumKeys())
		for i := range keys {
			keys[i] = uint64(i)
		}
	}
	if err := preload(f.cl, cat, vals, keys); err != nil {
		return f, err
	}
	// Port 0: the kernel picks a free port, so concurrent runs never
	// collide.
	if f.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return f, err
	}
	go func() { f.served <- f.cl.ServeRESP(f.ln) }()
	for i := 0; i < respConns; i++ {
		c, err := net.Dial("tcp", f.ln.Addr().String())
		if err != nil {
			return f, err
		}
		f.conns = append(f.conns, c)
		if err := ping(c); err != nil {
			return f, err
		}
	}
	return f, nil
}

func preload(cl *minos.Cluster, cat *workload.Catalog, vals *values, keys []uint64) error {
	errs := make(chan error, preloadWorkers)
	for w := 0; w < preloadWorkers; w++ {
		go func() {
			var key []byte
			for i := w; i < len(keys); i += preloadWorkers {
				id := keys[i]
				key = kv.AppendKeyForID(key[:0], id)
				if err := cl.Put(context.Background(), key, vals.filler[:cat.Size(id)]); err != nil {
					errs <- fmt.Errorf("preload key %d: %w", id, err)
					return
				}
			}
			errs <- nil
		}()
	}
	var first error
	for w := 0; w < preloadWorkers; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func ping(c net.Conn) error {
	if _, err := c.Write([]byte("*1\r\n$4\r\nPING\r\n")); err != nil {
		return err
	}
	buf := make([]byte, 7)
	if _, err := io.ReadFull(c, buf); err != nil {
		return err
	}
	if string(buf) != "+PONG\r\n" {
		return fmt.Errorf("PING answered %q", buf)
	}
	return nil
}

func (f *fleet) close() {
	for _, c := range f.conns {
		c.Close()
	}
	if f.ln != nil {
		f.ln.Close()
		<-f.served
	}
	if f.cl != nil {
		f.cl.Close()
	}
	for _, s := range f.servers {
		s.Stop()
	}
	os.RemoveAll(f.walDir)
}

// walSample sums the nodes' store and log counters at one instant.
type walSample struct {
	appended, fsyncs, stalls   uint64
	hits, misses, evicted      uint64
	memBytes, valueBytes       int64
	diskBytes                  int64
	hedged, wins, fails, hints uint64
}

func (f *fleet) sample() walSample {
	var s walSample
	for _, srv := range f.servers {
		snap := srv.Snapshot()
		s.appended += snap.WAL.Appended
		s.fsyncs += snap.WAL.Fsyncs
		s.stalls += snap.WAL.Stalls
		s.hits += snap.Hits
		s.misses += snap.Misses
		s.evicted += snap.Evicted
		s.memBytes += snap.MemBytes
		s.valueBytes += snap.ValueBytes
	}
	_ = filepath.WalkDir(f.walDir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				s.diskBytes += info.Size()
			}
		}
		return nil
	})
	st := f.cl.Stats()
	s.hedged, s.wins, s.fails, s.hints = st.Hedged, st.HedgeWins, st.Failovers, st.HintsQueued
	return s
}

// lagBytes sums the nodes' write-behind backlog.
func (f *fleet) lagBytes() int64 {
	var lag int64
	for _, srv := range f.servers {
		lag += srv.Snapshot().WAL.LagBytes
	}
	return lag
}

// inflightCmd is one pipelined command awaiting its reply.
type inflightCmd struct {
	id        uint64
	get       bool
	decided   int64 // when the load generator chose it (the previous reply's read)
	sent      int64
	seq       uint64
	userBytes int
}

// respStats are one connection's client-side counts.
type respStats struct {
	reads, replies uint64
	gets, sets     uint64
	setBytes       int64
	lagMax         int64
}

func (s *respStats) add(o respStats) {
	s.reads += o.reads
	s.replies += o.replies
	s.gets += o.gets
	s.sets += o.sets
	s.setBytes += o.setBytes
	s.lagMax = max(s.lagMax, o.lagMax)
}

// respLoop keeps respDepth commands in flight on c until end, then drains
// them. Replies are parsed strictly; any malformed byte ends the run.
func respLoop(f *fleet, c net.Conn, gen *workload.Generator, vals *values, res *phaseResult, st *respStats, measured, end int64, sampleLag bool) error {
	var ring [respDepth]inflightCmd
	head, n := 0, 0
	var w []byte
	r := make([]byte, 0, 1<<16)
	var seq uint64
	issue := func(decided int64) {
		req := gen.Next()
		seq++
		cmd := inflightCmd{id: req.Key, get: req.Op == workload.OpGet, decided: decided, seq: seq}
		var key [8]byte
		k := kv.AppendKeyForID(key[:0], req.Key)
		if cmd.get {
			w = append(w, "*2\r\n$3\r\nGET\r\n$8\r\n"...)
			w = append(w, k...)
			w = append(w, "\r\n"...)
		} else {
			v := vals.stampFor(req.Key)
			w = append(w, "*3\r\n$3\r\nSET\r\n$8\r\n"...)
			w = append(w, k...)
			w = append(w, "\r\n$"...)
			w = strconv.AppendInt(w, int64(len(v)), 10)
			w = append(w, "\r\n"...)
			w = append(w, v...)
			w = append(w, "\r\n"...)
			cmd.userBytes = len(k) + len(v)
		}
		ring[(head+n)%respDepth] = cmd
		n++
	}
	flush := func() error {
		if len(w) == 0 {
			return nil
		}
		sent := time.Now().UnixNano()
		for i := 0; i < n; i++ {
			if cm := &ring[(head+i)%respDepth]; cm.sent == 0 {
				cm.sent = sent
			}
		}
		_, err := c.Write(w)
		w = w[:0]
		return err
	}
	now := time.Now().UnixNano()
	for n < respDepth {
		issue(now)
	}
	if err := flush(); err != nil {
		return err
	}
	for n > 0 {
		if len(r) == cap(r) {
			r = append(r, 0)[:len(r)] // grow for a reply larger than the buffer
		}
		m, err := c.Read(r[len(r):cap(r)])
		if err != nil {
			return fmt.Errorf("RESP read: %w", err)
		}
		now := time.Now().UnixNano()
		r = r[:len(r)+m]
		st.reads++
		pos := 0
		for n > 0 {
			val, kind, used, perr := parseReply(r[pos:])
			if perr == errShort {
				break
			}
			if perr != nil {
				return perr
			}
			pos += used
			cm := ring[head]
			head = (head + 1) % respDepth
			n--
			st.replies++
			res.attempted++
			err := replyErr(cm, val, kind, vals, f.capped)
			if err != nil {
				res.fail(err)
			} else if cm.decided >= measured && res.small.record(cm.decided, now-cm.sent) {
				lat := now - cm.sent
				if cm.get {
					res.get.record(cm.decided, lat)
					st.gets++
				} else {
					res.put.record(cm.decided, lat)
					st.sets++
					st.setBytes += int64(cm.userBytes)
				}
				res.ops++
				res.late.Record(cm.sent - cm.decided)
				res.rtt.Record(lat)
				if res.tr.sampled(cm.seq) {
					res.tr.add(cm.seq, spanRequest, spanRequest, cm.decided, now)
					res.tr.add(cm.seq, spanGenWait, spanRequest, cm.decided, cm.sent)
					res.tr.add(cm.seq, spanRESP, spanRequest, cm.sent, now)
				}
				if sampleLag && res.ops%1024 == 0 {
					st.lagMax = max(st.lagMax, f.lagBytes())
				}
			}
			if now < end {
				issue(now)
			}
		}
		r = r[:copy(r, r[pos:])]
		if err := flush(); err != nil {
			return err
		}
	}
	return nil
}

// replyErr checks one reply against the command it answers: +OK for a
// SET; for a GET the key's value, or a nil bulk when missOK (the nodes
// evict).
func replyErr(cm inflightCmd, val []byte, kind replyKind, vals *values, missOK bool) error {
	switch {
	case !cm.get && (kind != replySimple || string(val) != "OK"):
		return fmt.Errorf("SET key %d answered %q", cm.id, val)
	case !cm.get:
		return nil
	case kind == replyNil && missOK:
		return nil
	case kind == replyNil:
		return fmt.Errorf("GET key %d missed on a store that never evicts", cm.id)
	case kind == replySimple:
		return fmt.Errorf("GET key %d answered with status %q", cm.id, val)
	}
	return vals.checkValue(cm.id, val)
}

// replyKind tells the RESP reply types a GET or SET may get apart.
type replyKind uint8

const (
	replySimple replyKind = iota // +status
	replyBulk                    // $n value
	replyNil                     // $-1, a miss
)

var errShort = errors.New("incomplete reply")

// parseReply reads one reply: a simple string, a bulk string (or the nil
// bulk), or an error, which it returns as an error. It returns errShort
// when buf holds only part of the reply, and an error for any byte the
// protocol does not allow there.
func parseReply(buf []byte) (val []byte, kind replyKind, used int, err error) {
	line := bytes.Index(buf, []byte("\r\n"))
	if line < 0 {
		if len(buf) > 64 && buf[0] != '$' {
			return nil, 0, 0, fmt.Errorf("RESP reply line without CRLF: %q", buf[:64])
		}
		return nil, 0, 0, errShort
	}
	if line == 0 {
		return nil, 0, 0, fmt.Errorf("RESP empty reply line")
	}
	switch buf[0] {
	case '+':
		return buf[1:line], replySimple, line + 2, nil
	case '-':
		return nil, 0, 0, fmt.Errorf("RESP error reply %q", buf[1:line])
	case '$':
		if string(buf[1:line]) == "-1" {
			return nil, replyNil, line + 2, nil
		}
		size, perr := strconv.Atoi(string(buf[1:line]))
		if perr != nil || size < 0 || (line > 2 && buf[1] == '0') {
			return nil, 0, 0, fmt.Errorf("RESP bad bulk length %q", buf[1:line])
		}
		end := line + 2 + size
		if len(buf) < end+2 {
			return nil, 0, 0, errShort
		}
		if buf[end] != '\r' || buf[end+1] != '\n' {
			return nil, 0, 0, fmt.Errorf("RESP bulk of %d bytes not followed by CRLF", size)
		}
		return buf[line+2 : end], replyBulk, end + 2, nil
	}
	return nil, 0, 0, fmt.Errorf("RESP unexpected reply type %q", buf[0])
}

// rwPhase drives every connection for warm+window.
func rwPhase(f *fleet, cat *workload.Catalog, zipf *workload.Zipf, vals *values, seed int64, warm, window time.Duration, trace bool) (*phaseResult, []*tracer, respStats, error) {
	measured := time.Now().Add(warm)
	end := measured.Add(window)
	results := make([]*phaseResult, len(f.conns))
	sts := make([]respStats, len(f.conns))
	errs := make([]error, len(f.conns))
	proc := sampleProc()
	var wg sync.WaitGroup
	for i, c := range f.conns {
		results[i] = newPhase(measured, window, trace)
		if trace {
			results[i].tr.lane = uint64(i)
		}
		gen := workload.NewGeneratorWithZipf(cat, zipf, seed+int64(i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = respLoop(f, c, gen, vals, results[i], &sts[i], measured.UnixNano(), end.UnixNano(), trace && i == 0)
		}()
	}
	wg.Wait()
	res := results[0]
	res.proc = proc
	st := sts[0]
	tracers := []*tracer{res.tr}
	for i := 1; i < len(results); i++ {
		res.merge(results[i])
		tracers = append(tracers, results[i].tr)
		st.add(sts[i])
	}
	return res, tracers, st, errors.Join(errs...)
}

func runClusterRW(cfg config) (*report, error) {
	cat := workload.NewCatalog(profileFor(cfg, 0.5, false))
	vals := newValues(cat)
	zipf := workload.NewZipf(cat.NumRegularKeys(), cat.Profile().ZipfTheta)
	root, err := os.MkdirTemp(outDir(), "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	boot := 0
	f, setupS, err := timeSetup(setupReps, func() (*fleet, error) {
		boot++
		return bootFleet(cat, vals, cfg, filepath.Join(root, strconv.Itoa(boot)), int64(nodeCapBytes*cfg.scale), nil)
	}, (*fleet).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	r := &report{trace: cfg.trace}
	window := seconds(cfg.seconds)
	warm := min(time.Second, window/2)
	if cfg.trace {
		window /= 2
	}
	res, _, _, err := rwPhase(f, cat, zipf, vals, cfg.seed+1, warm, window, false)
	if err != nil {
		return nil, err
	}
	e2ePhase(r, res, setupS, window)
	if !cfg.trace {
		return r, nil
	}
	before := f.sample()
	traced, tracers, st, err := rwPhase(f, cat, zipf, vals, cfg.seed+3, 0, window, true)
	if err != nil {
		return nil, err
	}
	after := f.sample()
	r.tally(traced)
	goLayer(r, traced.proc, traced.ops)
	lateLayers(r, traced)
	overhead(r, traced, res)
	r.layer("resp.replies_per_read", "count", ratio(float64(st.replies), float64(st.reads)))
	r.layer("wal.lag_bytes_max", "B", float64(st.lagMax))
	fleetLayers(r, f, before, after, float64(st.gets), float64(st.sets), st.setBytes)
	f.serverLayers(r)
	if err := spanReport(r, outDir(), spanStem(cfg), tracers...); err != nil {
		return nil, err
	}
	return r, ladder(r, cfg, cat, vals, workload.NewGeneratorWithZipf(cat, zipf, cfg.seed+4), nil, f, false)
}

// serverLayers adds the nic, server and client counters summed over the
// fleet's nodes; core skew is the worst node's.
func (f *fleet) serverLayers(r *report) {
	r.layer("nic.drops", "count", float64(f.fc.Drops()))
	var skew float64
	var changes int
	var sw, bad uint64
	for i, srv := range f.servers {
		snap := srv.Snapshot()
		var maxOps, sum float64
		for _, c := range snap.PerCore {
			maxOps = max(maxOps, float64(c.Ops))
			sum += float64(c.Ops)
		}
		skew = max(skew, ratio(maxOps, sum/float64(len(snap.PerCore))))
		changes += f.plans[i].changes()
		sw += snap.SwDrops
		bad += snap.BadFrames
	}
	plan := f.servers[0].Plan()
	r.layer("server.core_skew", "ratio", skew)
	r.layer("server.plan_changes", "count", float64(changes))
	r.layer("server.small_cores", "count", float64(plan.NumSmall))
	r.layer("server.threshold_bytes", "B", float64(plan.Threshold))
	r.layer("server.sw_drops", "count", float64(sw))
	r.layer("server.bad_frames", "count", float64(bad))
	var timeouts, stale, badFrames uint64
	for _, n := range f.cl.Stats().Nodes {
		timeouts += n.Client.TimedOut
		stale += n.Client.Stale
		badFrames += n.Client.BadFrames
	}
	r.layer("client.timeouts", "count", float64(timeouts))
	r.layer("client.stale", "count", float64(stale))
	r.layer("client.bad_frames", "count", float64(badFrames))
}
