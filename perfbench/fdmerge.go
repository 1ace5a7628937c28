package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/fd"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// fd-merge-mem: the Theorem 2 FD-merge protocol through distributed.Run on
// the in-memory star, repeated as one-shot jobs over the same input. The
// servers' FD shrinks dominate; there is no codec and no query loop.
const (
	fdServers = 4
	fdEps     = 0.1
	fdK       = 5
)

type fdSizes struct{ n, d int }

func fdSize(tiny bool) fdSizes {
	if tiny {
		return fdSizes{n: 1024, d: 64}
	}
	return fdSizes{n: 2048, d: 64}
}

// fdInput generates the workload's input: dense low-rank-plus-noise rows
// (the servers get contiguous blocks of them).
func fdInput(seed int64, sz fdSizes) *matrix.Dense {
	return workload.LowRankPlusNoise(rand.New(rand.NewSource(seed)), sz.n, sz.d, fdK, 60, 0.7, 0.5)
}

func runFDMerge(cfg runCfg) (*report, error) {
	sz := fdSize(cfg.tiny)
	rep := newReport()
	a, setup := setupMedian(func() *matrix.Dense { return fdInput(cfg.seed, sz) })
	rep.set("setup_s", setup)
	parts := workload.Split(a, fdServers, workload.Contiguous, nil)
	ell := fd.SketchSize(fdEps, fdK)
	ctx := context.Background()
	proto := distributed.FDMerge{Eps: fdEps, K: fdK}

	// Reference job: full output check, then every later job must repeat
	// its sketch bit for bit and its words exactly.
	ref, err := distributed.Run(ctx, proto, parts)
	if err != nil {
		return nil, err
	}
	wantWords := float64(fdServers * ell * sz.d)
	rep.check(ref.Words == wantWords, "fd-merge words %v, want s·ℓ·d = %v", ref.Words, wantWords)
	ok, coverr, budget, err := core.IsEpsKSketch(a, ref.Sketch, fdEps, fdK)
	if err != nil {
		return nil, err
	}
	rep.check(ok, "fd-merge sketch coverr %.6g exceeds its (ε,k) budget %.6g", coverr, budget)
	rep.set("rel_err", coverr/a.Frob2())
	rep.set("words", ref.Words)
	rep.note("fd-merge-mem: n=%d d=%d s=%d ε=%g k=%d ℓ=%d; words=%v coverr/‖A‖F²=%.6g (budget %.6g)",
		sz.n, sz.d, fdServers, fdEps, fdK, ell, ref.Words, coverr/a.Frob2(), budget/a.Frob2())

	job := func() error {
		res, err := distributed.Run(ctx, proto, parts)
		if err != nil {
			return err
		}
		rep.check(sameBits(res.Sketch, ref.Sketch) && res.Words == ref.Words,
			"fd-merge job differs from the reference run (words %v vs %v)", res.Words, ref.Words)
		return nil
	}
	p50, err := measureJobs(rep, cfg, "fd-merge job to a checked sketch", sz.n, job)
	if err != nil || !cfg.trace {
		return rep, err
	}

	tr := newTracer()
	sent := &frames{}
	traced, err := repeatJobs(cfg.seconds/2, func() error {
		tr.newRun()
		sk, words, err := fdTracedJob(ctx, tr, parts, sz.d, ell, sent)
		if err != nil {
			return err
		}
		rep.check(sameBits(sk, ref.Sketch) && words == ref.Words,
			"traced fd-merge job (layer calls) differs from distributed.Run (words %v vs %v)", words, ref.Words)
		return nil
	})
	if err != nil {
		return nil, err
	}
	jobs := float64(len(traced))
	st := tr.stats()
	rep.set("trace.overhead_frac", median(traced)/p50-1)
	setJobLayers(rep, st, jobs)
	fdLayers(rep, st, jobs)
	serverSpread(rep, tr, "server")
	rep.set("trace.unattributed_frac", layerSelf(st, "job", "server", "coordinator")/totalSelf(st))
	rep.note("traced fd-merge-mem: %d jobs, p50 %.3f ms (untraced %.3f ms); per job: coordinator recv-wait %.3f s + fd.merge %.3f s on the critical path; fd.shrink is %.1f%% of working self time",
		len(traced), median(traced), p50, get(st, "distributed.recv_wait").self/jobs, get(st, "fd.merge").self/jobs, 100*rep.values["fd.shrink_share"])

	buf := parts[0].CopyRows(0, min(2*ell, parts[0].Rows()))
	if err := probeLinalg(rep, buf); err != nil {
		return nil, err
	}
	if err := probePCA(rep, ref.Sketch, fdK); err != nil {
		return nil, err
	}
	if err := probeCodec(rep, sent.all(), jobs); err != nil {
		return nil, err
	}
	probeAllocPerRow(rep, func() workload.RowSource { return workload.NewDenseSource(parts[0]) })
	zeroUnexercised(rep, "words", "rel_err", "workload.", "fd.", "linalg.", "matrix.", "comm.", "distributed.", "pca.", "runtime.", "query.", "trace.")
	return rep, tr.write(cfg.tracePath("fd-merge-mem"))
}

// fdTracedJob runs the FD-merge protocol as the benchmark's own calls into
// the fd layer — per-row Update on each server, Matrix, then MergeCanonical
// at the coordinator — over a MemNetwork the benchmark builds, so each call
// and each Send/Recv gets a span. Its sketch must equal distributed.Run's
// bit for bit (the caller checks), which pins the replay to the protocol.
func fdTracedJob(ctx context.Context, tr *tracer, parts []*matrix.Dense, d, ell int, sent *frames) (*matrix.Dense, float64, error) {
	root, endRoot := tr.begin("job", noParent)
	defer endRoot()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	mem := distributed.NewMemNetwork(len(parts), nil)
	defer mem.Close()
	errs := make(chan error, len(parts))
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sid, end := tr.begin("server", root)
			defer end()
			src := timeSource(tr, workload.NewDenseSource(parts[i]), sid)
			sk := fd.New(d, ell, fd.Options{})
			upd := tr.agg("fd.update", sid)
			step := func(fn func() error) error {
				before := sk.Shrinks()
				t0 := time.Now()
				err := fn()
				dt := time.Since(t0)
				if sk.Shrinks() > before {
					tr.record("fd.shrink", sid, t0, t0.Add(dt), 0, 0)
				} else {
					upd.add(t0, dt)
				}
				return err
			}
			for {
				row, ok := src.Next()
				if !ok {
					break
				}
				if err := step(func() error { return sk.Update(row) }); err != nil {
					errs <- err
					cancel()
					return
				}
			}
			var b *matrix.Dense
			err := step(func() (err error) { b, err = sk.Matrix(); return err })
			upd.close()
			if err != nil {
				errs <- err
				cancel()
				return
			}
			node := timeNode(tr, mem.Node(i), sid, sent)
			errs <- node.Send(ctx, comm.CoordinatorID, &comm.Message{Kind: "fd-sketch", Matrix: b})
		}(i)
	}
	cid, endCoord := tr.begin("coordinator", root)
	node := timeNode(tr, mem.Coordinator(), cid, nil)
	got := make([]*matrix.Dense, len(parts))
	var err error
	for j := 0; j < len(parts) && err == nil; j++ {
		var msg *comm.Message
		if msg, err = node.Recv(ctx); err == nil {
			got[msg.From] = msg.Matrix
		}
	}
	var merged *matrix.Dense
	if err == nil {
		err = tr.timed("fd.merge", cid, func() (err error) {
			merged, err = fd.MergeCanonical(d, ell, got, fd.Options{})
			return err
		})
	}
	endCoord()
	if err != nil {
		mem.Close()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		if e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		return nil, 0, fmt.Errorf("traced fd-merge job: %w", err)
	}
	return merged, mem.Meter().Words(), nil
}

// fdLayers sets the fd.* metrics from the spans, per job.
func fdLayers(rep *report, st map[string]*layerStats, jobs float64) {
	upd, shr, mrg := get(st, "fd.update"), get(st, "fd.shrink"), get(st, "fd.merge")
	rep.set("fd.updates", float64(upd.count+shr.count)/jobs)
	rep.set("fd.shrinks", float64(shr.count)/jobs)
	rep.set("fd.update_s", upd.self/jobs)
	rep.set("fd.shrink_s", shr.self/jobs)
	rep.set("fd.merge_s", mrg.self/jobs)
	// Waiting is not work: the share is of the self time spent doing
	// something, which excludes the coordinator's receive wait.
	if busy := totalSelf(st) - get(st, "distributed.recv_wait").self; busy > 0 {
		rep.set("fd.shrink_share", shr.self/busy)
	}
}

// setJobLayers sets the metrics of the interfaces the benchmark owns (the
// RowSource and Node wrappers), per job.
func setJobLayers(rep *report, st map[string]*layerStats, jobs float64) {
	rep.set("workload.read_s", layerSelf(st, "workload.read")/jobs)
	rep.set("workload.rows", float64(get(st, "workload.read").count+get(st, "workload.read.sparse").count)/jobs)
	rep.set("distributed.send_s", get(st, "distributed.send").self/jobs)
	rep.set("distributed.recv_wait_s", get(st, "distributed.recv_wait").self/jobs)
}

func totalSelf(st map[string]*layerStats) float64 {
	var sum float64
	for _, s := range st {
		sum += s.self
	}
	return sum
}

// measureJobs runs a one-shot workload's untraced jobs (for the whole run,
// or its first half when traced) and sets the metrics they give: the
// end-to-end ones from the job latencies, and GC activity per job and the
// tail's sample count for the traced run. It returns the median job time in
// ms.
func measureJobs(rep *report, cfg runCfg, what string, rows int, job func() error) (float64, error) {
	gc := readGC()
	lat, err := repeatJobs(cfg.untracedSeconds(), job)
	if err != nil {
		return 0, err
	}
	cycles, pauseMs, _ := gc.since()
	jobs := float64(len(lat))
	p50 := median(lat)
	tl, pct := tail(lat)
	rep.set("rows_per_s", float64(rows)/(p50/1e3))
	rep.set("query_p50_ms", p50)
	rep.set("query_tail_ms", tl)
	rep.set("runtime.gc_cycles", cycles/jobs)
	rep.set("runtime.gc_pause_ms", pauseMs/jobs)
	rep.set("query.samples", jobs)
	rep.set("query.tail_pct", pct)
	rep.note("query = one %s: %s", what, tailNote(lat))
	return p50, nil
}

// repeatJobs runs job back to back for at least the given number of
// seconds (and at least minJobs times) and returns each job's latency in
// milliseconds.
func repeatJobs(seconds float64, job func() error) ([]float64, error) {
	var lat []float64
	start := time.Now()
	for len(lat) < minJobs || time.Since(start).Seconds() < seconds {
		t0 := time.Now()
		if err := job(); err != nil {
			return nil, err
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return lat, nil
}

// sameBits reports whether a and b have the same shape and bit-identical
// entries.
func sameBits(a, b *matrix.Dense) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	x, y := a.Data(), b.Data()
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}
