package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/distributed"
	"repro/internal/fd"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/monitoring"
	"repro/internal/service"
	"repro/internal/workload"
)

// service-ingest-query: the daemon in one process — a service.Coordinator
// on a TCP hub with its HTTP query API, plus service.Servers — ingesting a
// pre-generated stream as fast as they can (closed loop) while an open-loop
// generator queries the API at a fixed rate over a fixed number of
// keep-alive connections.
const (
	svcServers = 2
	svcEps     = 0.1
	svcTopK    = 5
	svcConns   = 2
	// svcWait bounds every wait on the daemon: warm-up, drain, quiescence.
	svcWait = 20 * time.Second
	// svcReplayRows caps the stream prefix the fd and monitoring probes
	// replay.
	svcReplayRows = 20000
)

type svcSizes struct {
	n, d int     // pre-generated rows per server (replayed in a loop), dimension
	rate float64 // aggregate query rate, queries per second
}

func svcSize(tiny bool) svcSizes {
	if tiny {
		return svcSizes{n: 2000, d: 8, rate: 20}
	}
	return svcSizes{n: 50000, d: 32, rate: 20}
}

// queryKinds is the cycle the generator walks through.
var queryKinds = []string{"/status", "/coverr", "/sketch", "/topk?k=5"}

func genStreams(seed int64, sz svcSizes) []*matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*matrix.Dense, svcServers)
	for i := range out {
		out[i] = workload.LowRankPlusNoise(rng, sz.n, sz.d, svcTopK, 60, 0.7, 0.5)
	}
	return out
}

// session is what one daemon deployment measured.
type session struct {
	rows        int64
	ingestSecs  float64
	lat         []float64            // ms from due time, every query
	latByKind   map[string][]float64 // the same, per query kind
	serviceMs   map[string][]float64 // ms from send, per query kind
	lateMs      []float64            // how late the generator dispatched each query
	status      *service.Status      // after drain
	sketch      *matrix.Dense        // after drain
	serverSecs  []float64
	inproc      map[string][]float64 // traced: in-process call ms per kind
	stale       []float64            // traced: 1 − reported/emitted mass
	consumed    []int64
	coverr      float64
	bound, mass float64
}

func runService(cfg runCfg) (*report, error) {
	sz := svcSize(cfg.tiny)
	rep := newReport()
	streams, setup := setupMedian(func() []*matrix.Dense { return genStreams(cfg.seed, sz) })
	rep.set("setup_s", setup)
	mcfg := monitoring.Config{Eps: svcEps, S: svcServers, D: sz.d, Policy: monitoring.PolicyDelta, Seed: cfg.seed}

	gc := readGC()
	u, err := runSession(rep, nil, mcfg, streams, sz, cfg.untracedSeconds())
	if err != nil {
		return nil, err
	}
	gcCycles, gcPause, _ := gc.since()
	rowsPerS := float64(u.rows) / u.ingestSecs
	p50 := median(u.lat)
	tl, pct := tail(u.lat)
	rep.set("rows_per_s", rowsPerS)
	rep.set("query_p50_ms", p50)
	rep.set("query_tail_ms", tl)
	rep.set("rel_err", u.coverr/u.mass)
	rep.set("words", u.status.Words)
	rep.note("service-ingest-query: s=%d d=%d ε=%g fd-delta; %d rows %v in %.2f s; queries at %.0f/s over %d connections: %s",
		svcServers, sz.d, svcEps, u.rows, u.consumed, u.ingestSecs, sz.rate, svcConns, tailNote(u.lat))
	for _, k := range queryKinds {
		rep.note("  %-9s p50 %.3f ms from due time, %.3f ms from send (%d queries)", k, median(u.latByKind[k]), median(u.serviceMs[k]), len(u.latByKind[k]))
	}
	rep.note("after drain: coverr/‖A‖F²=%.6g, error_bound/‖A‖F²=%.6g; uploads=%d broadcasts=%d metered words=%v (timing-dependent, not gated)",
		u.coverr/u.mass, u.bound/u.mass, u.status.Uploads, u.status.Broadcasts, u.status.Words)
	if !cfg.trace {
		return rep, nil
	}

	rep.set("runtime.gc_cycles", gcCycles)
	rep.set("runtime.gc_pause_ms", gcPause)
	rep.set("query.samples", float64(len(u.lat)))
	rep.set("query.tail_pct", pct)
	late, _ := tail(u.lateMs)
	rep.set("loadgen.late_ms", late)

	tr := newTracer()
	t, err := runSession(rep, tr, mcfg, streams, sz, cfg.seconds/2)
	if err != nil {
		return nil, err
	}
	st := tr.stats()
	rep.set("trace.overhead_frac", rowsPerS/(float64(t.rows)/t.ingestSecs)-1)
	rep.set("workload.read_s", layerSelf(st, "workload.read"))
	rep.set("workload.rows", float64(get(st, "workload.read").count))
	rep.set("trace.unattributed_frac", layerSelf(st, "session", "server")/totalSelf(st))
	// The service takes the concrete TCP endpoint types, so the benchmark has
	// no Node to wrap: send and receive waits are not observable here.
	rep.set("distributed.send_s", 0)
	rep.set("distributed.recv_wait_s", 0)
	rep.set("distributed.server_s_max", maxOf(t.serverSecs))
	rep.set("distributed.server_skew", maxOf(t.serverSecs)/median(t.serverSecs))
	rep.set("monitoring.uploads", float64(t.status.Uploads))
	rep.set("monitoring.broadcasts", float64(t.status.Broadcasts))
	rep.set("service.status_ms", median(t.inproc["status"]))
	rep.set("service.sketch_ms", median(t.inproc["sketch"]))
	rep.set("service.topk_ms", median(t.inproc["topk"]))
	rep.set("service.http_overhead_ms", median([]float64{
		median(t.serviceMs["/status"]) - median(t.inproc["status"]),
		median(t.serviceMs["/sketch"]) - median(t.inproc["sketch"]),
		median(t.serviceMs["/topk?k=5"]) - median(t.inproc["topk"]),
	}))
	rep.set("service.stale_frac", median(t.stale))

	ell := monitoring.SketchRows(svcEps)
	if err := probeLinalg(rep, streams[0].CopyRows(0, min(2*ell, sz.n))); err != nil {
		return nil, err
	}
	if err := probePCA(rep, t.sketch, svcTopK); err != nil {
		return nil, err
	}
	replayRows := int(min(t.consumed[0], int64(min(sz.n, svcReplayRows))))
	if err := probeServiceFD(rep, tr, streams[0].CopyRows(0, replayRows), ell); err != nil {
		return nil, err
	}
	sent, err := probeMonitoring(rep, tr, mcfg, streams, replayRows)
	if err != nil {
		return nil, err
	}
	if err := probeCodec(rep, sent, 1); err != nil {
		return nil, err
	}
	// loopSource copies each row like DenseSource does; probe the latter,
	// which ends after one pass.
	probeAllocPerRow(rep, func() workload.RowSource { return workload.NewDenseSource(streams[0]) })
	zeroUnexercised(rep, "words", "rel_err", "workload.", "fd.", "linalg.", "matrix.", "comm.", "distributed.", "monitoring.",
		"service.", "pca.", "runtime.", "loadgen.", "query.", "trace.")
	return rep, tr.write(cfg.tracePath("service-ingest-query"))
}

// runSession deploys the daemon, ingests and queries for the given number
// of seconds, drains, and checks the result. Every query and every check is
// an operation in rep.
func runSession(rep *report, tr *tracer, mcfg monitoring.Config, streams []*matrix.Dense, sz svcSizes, seconds float64) (*session, error) {
	root, endRoot := tr.begin("session", noParent)
	defer endRoot()
	scfg := service.Config{Monitoring: mcfg, QueryTimeout: svcWait}
	coord, err := service.NewCoordinator(scfg)
	if err != nil {
		return nil, err
	}
	hub, err := distributed.NewTCPCoordinatorOpts("127.0.0.1:0", svcServers, nil, distributed.TCPOptions{
		DebugAddr: "127.0.0.1:0", DebugMount: coord.Mount,
	})
	if err != nil {
		return nil, err
	}
	defer hub.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var daemons sync.WaitGroup
	daemons.Add(1)
	go func() {
		defer daemons.Done()
		coord.Run(ctx, hub)
	}()
	defer daemons.Wait()
	defer cancel()

	var stop atomic.Bool
	srcs := make([]*loopSource, svcServers)
	res := &session{serverSecs: make([]float64, svcServers), latByKind: map[string][]float64{}, serviceMs: map[string][]float64{}, inproc: map[string][]float64{}}
	srvErr := make(chan error, svcServers)
	var servers sync.WaitGroup
	start := time.Now()
	for i := range srcs {
		srcs[i] = &loopSource{m: streams[i], stop: &stop}
		scfgSrv := scfg
		scfgSrv.ExitWhenDrained = true
		servers.Add(1)
		go func(i int) {
			defer servers.Done()
			sid, end := tr.begin("server", root)
			defer end()
			t0 := time.Now()
			err := func() error {
				srv, err := service.NewServer(scfgSrv, i, timeSource(tr, srcs[i], sid))
				if err != nil {
					return err
				}
				up, err := distributed.DialTCPServerContext(ctx, hub.Addr(), i, nil, distributed.TCPOptions{})
				if err != nil {
					return err
				}
				defer up.Close()
				return srv.Run(ctx, up)
			}()
			res.serverSecs[i] = time.Since(t0).Seconds()
			if err != nil {
				srvErr <- fmt.Errorf("server %d: %w", i, err)
				stop.Store(true)
			}
		}(i)
	}

	base := "http://" + hub.Debug().Addr()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	if err := waitFor(ctx, func() (bool, error) {
		st, err := coord.Status(ctx)
		return err == nil && st.Uploads > 0, err
	}); err != nil {
		stop.Store(true)
		servers.Wait()
		return nil, fmt.Errorf("waiting for the first upload: %w", err)
	}
	var inproc sync.WaitGroup
	if tr != nil {
		inproc.Add(1)
		go func() {
			defer inproc.Done()
			inProcessQueries(ctx, tr, root, coord, srcs, streams, deadline, res)
		}()
	}
	lgErr := runLoadgen(ctx, rep, tr, root, base, sz, mcfg.Seed, deadline, res)
	inproc.Wait()
	stop.Store(true)
	res.ingestSecs = time.Since(start).Seconds()
	servers.Wait()
	close(srvErr)
	for err := range srvErr {
		return nil, err
	}
	if lgErr != nil {
		return nil, lgErr
	}
	for _, s := range srcs {
		res.consumed = append(res.consumed, s.consumed.Load())
		res.rows += s.consumed.Load()
	}

	// Drain check: the coordinator must converge to exactly the mass the
	// sources emitted, and the drained sketch's exact covariance error must
	// sit within the certificate the daemon reports.
	want := 0.0
	for i, s := range streams {
		want += streamMass(s, res.consumed[i])
	}
	var last float64
	err = waitFor(ctx, func() (bool, error) {
		st, err := coord.Status(ctx)
		if err != nil {
			return false, err
		}
		res.status, last = st, st.ReportedMass
		return last == want, nil
	})
	if res.status == nil {
		return nil, fmt.Errorf("status after drain: %w", err)
	}
	rep.check(err == nil, "service never reported the emitted mass %v after drain (last %v): %v", want, last, err)
	sk, bound, err := coord.SketchQuery(ctx)
	if err != nil {
		return nil, err
	}
	res.sketch, res.bound, res.mass = sk, bound, want
	res.coverr, err = streamCovErr(streams, res.consumed, sk)
	if err != nil {
		return nil, err
	}
	rep.check(res.coverr <= bound*(1+1e-9), "drained sketch coverr %.6g exceeds its error_bound %.6g", res.coverr, bound)
	return res, nil
}

// runLoadgen drives the query API from a child process (see loadgen.go),
// so the generator never waits for the daemon's saturated CPU scheduler to
// wake it, and folds the child's per-query records into the session.
func runLoadgen(ctx context.Context, rep *report, tr *tracer, parent int32, base string, sz svcSizes, seed int64, deadline time.Time, res *session) error {
	out, err := spawnLoadgen(ctx, loadgenSpec{Base: base, Rate: sz.rate, Until: deadline.UnixNano(), Seed: seed, D: sz.d})
	if err != nil {
		return err
	}
	for _, q := range out.Queries {
		tr.record("http"+q.Kind, parent, time.Unix(0, q.Sent), time.Unix(0, q.Done), 0, 0)
		rep.check(q.Err == "", "GET %s: %s", q.Kind, q.Err)
		ms := float64(q.Done-q.Due) / 1e6
		res.lat = append(res.lat, ms)
		res.latByKind[q.Kind] = append(res.latByKind[q.Kind], ms)
		res.serviceMs[q.Kind] = append(res.serviceMs[q.Kind], float64(q.Done-q.Sent)/1e6)
	}
	res.lateMs = out.LateMs
	// The generator itself must keep to its schedule, or the latencies
	// measure the generator rather than the daemon.
	late, _ := tail(res.lateMs)
	gap := 1e3 / sz.rate
	rep.check(late < gap, "query generator fell behind its schedule by %.3f ms (mean gap %.0f ms)", late, gap)
	return nil
}

// inProcessQueries calls Status, SketchQuery and TopK directly while the
// servers ingest, for the service.* spans, and samples how stale the
// coordinator's view is: the share of the mass the sources have emitted
// that it has not yet heard about.
func inProcessQueries(ctx context.Context, tr *tracer, parent int32, coord *service.Coordinator, srcs []*loopSource,
	streams []*matrix.Dense, deadline time.Time, res *session) {
	prefix := make([][]float64, len(streams))
	for i, s := range streams {
		prefix[i] = massPrefix(s)
	}
	call := func(kind string, fn func() error) {
		t0 := time.Now()
		if err := fn(); err == nil {
			tr.record("service."+kind, parent, t0, time.Now(), 0, 0)
			res.inproc[kind] = append(res.inproc[kind], float64(time.Since(t0).Nanoseconds())/1e6)
		}
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for time.Now().Before(deadline) {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		var emitted float64
		for i, s := range srcs {
			c := s.consumed.Load()
			n := int64(len(prefix[i]) - 1)
			emitted += float64(c/n)*prefix[i][n] + prefix[i][c%n]
		}
		call("status", func() error {
			st, err := coord.Status(ctx)
			if err == nil && emitted > 0 {
				res.stale = append(res.stale, 1-st.ReportedMass/emitted)
			}
			return err
		})
		call("sketch", func() error { _, _, err := coord.SketchQuery(ctx); return err })
		call("topk", func() error { _, err := coord.TopK(ctx, svcTopK); return err })
	}
}

// probeServiceFD replays one server's stream prefix through a tracking-size
// FD sketch as the benchmark's own fd-layer calls: the per-row work each of
// a server's two sketches does.
func probeServiceFD(rep *report, tr *tracer, rows *matrix.Dense, ell int) error {
	root, end := tr.begin("probe.fd", noParent)
	defer end()
	sk := fd.New(rows.Cols(), ell, fd.Options{})
	upd := tr.agg("fd.update", root)
	var updS, shrS float64
	for i := 0; i < rows.Rows(); i++ {
		before := sk.Shrinks()
		t0 := time.Now()
		err := sk.Update(rows.Row(i))
		dt := time.Since(t0)
		if err != nil {
			return err
		}
		if sk.Shrinks() > before {
			tr.record("fd.shrink", root, t0, t0.Add(dt), 0, 0)
			shrS += dt.Seconds()
		} else {
			upd.add(t0, dt)
			updS += dt.Seconds()
		}
	}
	upd.close()
	rep.set("fd.updates", float64(rows.Rows()))
	rep.set("fd.shrinks", float64(sk.Shrinks()))
	rep.set("fd.update_s", updS)
	rep.set("fd.shrink_s", shrS)
	rep.set("fd.shrink_share", shrS/(shrS+updS))
	// The service stacks per-server sketches; it never calls MergeCanonical.
	rep.set("fd.merge_s", 0)
	return nil
}

// probeMonitoring replays the tracking protocol over the streams' first
// rows as the benchmark's own monitoring-layer calls — Offer on each
// server, Absorb at the coordinator, thresholds delivered at once — timing
// each Absorb, and returns the wire encoding of the messages the replay
// would send, for the codec probe.
func probeMonitoring(rep *report, tr *tracer, mcfg monitoring.Config, streams []*matrix.Dense, rows int) ([][]byte, error) {
	root, end := tr.begin("probe.monitoring", noParent)
	defer end()
	coord := monitoring.NewCoordinator(mcfg)
	servers := make([]*monitoring.Server, len(streams))
	for i := range servers {
		servers[i] = monitoring.NewServer(mcfg, i)
	}
	sent := &frames{}
	var absorb []float64
	deliver := func(up *monitoring.Upload) error {
		msg := &comm.Message{Kind: service.KindAnnounce, Scalars: []float64{up.Mass}}
		if !up.Announce {
			msg = &comm.Message{Kind: service.KindDelta, Scalars: []float64{up.Mass, up.Shrinkage}, Ints: []int64{0}, Matrix: up.Rows}
		}
		sent.add(msg)
		t0 := time.Now()
		bc, err := coord.Absorb(up)
		tr.record("monitoring.absorb", root, t0, time.Now(), 0, 0)
		absorb = append(absorb, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil || bc == nil {
			return err
		}
		for _, id := range bc.To {
			sent.add(&comm.Message{Kind: service.KindThreshold, Scalars: []float64{bc.Threshold}})
			servers[id].SetThreshold(bc.Threshold)
		}
		return nil
	}
	for r := 0; r < rows; r++ {
		for i, s := range servers {
			up, err := s.Offer(streams[i].Row(r))
			if err != nil {
				return nil, err
			}
			if up != nil {
				if err := deliver(up); err != nil {
					return nil, err
				}
			}
		}
	}
	if len(absorb) == 0 {
		return nil, errors.New("monitoring replay produced no uploads")
	}
	rep.set("monitoring.absorb_ms", median(absorb))
	return sent.all(), nil
}

// massPrefix returns p with p[j] = Σ_{r<j} ‖row r‖², accumulated in row
// order exactly as a tracking server accumulates its local mass.
func massPrefix(m *matrix.Dense) []float64 {
	p := make([]float64, m.Rows()+1)
	for r := 0; r < m.Rows(); r++ {
		p[r+1] = p[r] + matrix.Norm2(m.Row(r))
	}
	return p
}

// streamMass is the mass of the first consumed rows of the looped stream,
// summed in the same order as the server sums it (so the two agree bit for
// bit).
func streamMass(m *matrix.Dense, consumed int64) float64 {
	var mass float64
	n := int64(m.Rows())
	for c := int64(0); c < consumed; c++ {
		mass += matrix.Norm2(m.Row(int(c % n)))
	}
	return mass
}

// streamCovErr is the exact ‖AᵀA − BᵀB‖₂ of the sketch B against all rows
// the servers consumed (whole passes over each stream plus a prefix). The
// prefix is accumulated row by row rather than copied out, so the check
// adds no run-dependent allocation to the run's peak memory.
func streamCovErr(streams []*matrix.Dense, consumed []int64, sk *matrix.Dense) (float64, error) {
	d := sk.Cols()
	g := matrix.New(d, d)
	gd := g.Data()
	for i, s := range streams {
		n := int64(s.Rows())
		if full := consumed[i] / n; full > 0 {
			for j, v := range s.Gram().Data() {
				gd[j] += float64(full) * v
			}
		}
		for r := 0; r < int(consumed[i]%n); r++ {
			row := s.Row(r)
			for a, x := range row {
				for b, y := range row {
					gd[a*d+b] += x * y
				}
			}
		}
	}
	return linalg.SpectralNormSymFast(g.Sub(sk.Gram()))
}

// waitFor polls cond until it holds, fails, or svcWait passes.
func waitFor(ctx context.Context, cond func() (bool, error)) error {
	ctx, cancel := context.WithTimeout(ctx, svcWait)
	defer cancel()
	for {
		ok, err := cond()
		if ok {
			return nil
		}
		if err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
