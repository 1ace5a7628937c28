package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/distributed"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// product-sparse-tcp: coordinated-sampling AᵀB estimation (CoordinatedProduct)
// over real loopback TCP inside one process — a hub plus dialing servers —
// on sparse inputs generated in set-up. It never touches FD or linalg.
const (
	prodServers = 4
	prodTimeout = 60 * time.Second
)

type prodSizes struct {
	n, dA, dB, sample int
	density           float64
}

func prodSize(tiny bool) prodSizes {
	if tiny {
		return prodSizes{n: 20000, dA: 64, dB: 48, sample: 128, density: 0.05}
	}
	return prodSizes{n: 400000, dA: 256, dB: 256, sample: 1024, density: 0.01}
}

// prodData is the generated input: row-aligned sparse shards of A and B.
type prodData struct {
	a, b    []*matrix.Sparse
	offsets []int
	seed    int64 // the protocol's shared sampling seed
}

func genProduct(seed int64, sz prodSizes) *prodData {
	rng := rand.New(rand.NewSource(seed))
	genA := workload.NewSparseGaussianSource(sz.n, sz.dA, sz.density, rng.Int63())
	genB := workload.NewSparseGaussianSource(sz.n, sz.dB, sz.density, rng.Int63())
	in := &prodData{seed: rng.Int63()}
	for i := 0; i < prodServers; i++ {
		lo, hi := workload.ContiguousRange(sz.n, prodServers, i)
		a, b := matrix.NewSparse(sz.dA), matrix.NewSparse(sz.dB)
		for r := lo; r < hi; r++ {
			va, _ := genA.SparseNext()
			vb, _ := genB.SparseNext()
			a.AppendRow(va)
			b.AppendRow(vb)
		}
		in.a, in.b, in.offsets = append(in.a, a), append(in.b, b), append(in.offsets, lo)
	}
	return in
}

// input is server i's aligned shard pair, read through the timing wrapper
// when tr is set.
func (in *prodData) input(i int, tr *tracer, parent int32) distributed.Input {
	return distributed.ProductInput(
		timeSource(tr, workload.NewSparseSource(in.a[i]), parent),
		timeSource(tr, workload.NewSparseSource(in.b[i]), parent),
		in.offsets[i])
}

// protocol is the coord-product protocol value the TCP parties run, with
// the Env a direct TCP caller must fill in.
func (in *prodData) protocol(sz prodSizes) distributed.CoordinatedProduct {
	return distributed.CoordinatedProduct{
		SampleSize: sz.sample,
		Env:        distributed.Env{Servers: prodServers, Dim: sz.dA, DimB: sz.dB, Config: distributed.Config{Seed: in.seed}},
	}
}

func (in *prodData) inputs() []distributed.Input {
	out := make([]distributed.Input, len(in.a))
	for i := range out {
		out[i] = in.input(i, nil, noParent)
	}
	return out
}

// exact returns AᵀB and the two Frobenius norms, computed directly from the
// shards.
func (in *prodData) exact(dA, dB int) (p *matrix.Dense, frobA, frobB float64) {
	p = matrix.New(dA, dB)
	data := p.Data()
	var fa, fb float64
	for i := range in.a {
		n, _ := in.a[i].Dims()
		for r := 0; r < n; r++ {
			a, b := in.a[i].Row(r), in.b[i].Row(r)
			fa += a.Norm2()
			fb += b.Norm2()
			for ia, ja := range a.Indices {
				row := data[ja*dB : (ja+1)*dB]
				for ib, jb := range b.Indices {
					row[jb] += a.Values[ia] * b.Values[ib]
				}
			}
		}
	}
	return p, math.Sqrt(fa), math.Sqrt(fb)
}

func runProduct(cfg runCfg) (*report, error) {
	sz := prodSize(cfg.tiny)
	rep := newReport()
	in, setup := setupMedian(func() *prodData { return genProduct(cfg.seed, sz) })
	rep.set("setup_s", setup)
	ctx := context.Background()

	// Reference: the same protocol in memory. Every TCP job must return its
	// estimate bit for bit and meter the same bits.
	ref, err := distributed.RunWorkload(ctx, distributed.CoordinatedProduct{SampleSize: sz.sample},
		in.inputs(), distributed.WithSeed(in.seed))
	if err != nil {
		return nil, err
	}
	exact, frobA, frobB := in.exact(sz.dA, sz.dB)
	relErr := core.ProductErr(ref.Product, exact) / (frobA * frobB)
	rep.set("rel_err", relErr)
	rep.set("words", ref.Words)
	rep.note("product-sparse-tcp: n=%d dA=%d dB=%d density=%g s=%d m=%d; words=%v ‖est−AᵀB‖F/(‖A‖F‖B‖F)=%.6g (certificate %.6g, holds w.p. ≥3/4)",
		sz.n, sz.dA, sz.dB, sz.density, prodServers, sz.sample, ref.Words, relErr, ref.Certificate/(frobA*frobB))

	proto := in.protocol(sz)
	job := func(tr *tracer, sent *frames) func() error {
		return func() error {
			tr.newRun()
			res, bits, err := productTCPJob(ctx, tr, in, proto, sent)
			if err != nil {
				return err
			}
			rep.check(sameBits(res.Product, ref.Product) && bits == ref.Bits && res.Certificate == ref.Certificate,
				"TCP coord-product job differs from the in-memory run (bits %d vs %d)", bits, ref.Bits)
			return nil
		}
	}
	p50, err := measureJobs(rep, cfg, "TCP coord-product job to a checked estimate", sz.n, job(nil, nil))
	if err != nil || !cfg.trace {
		return rep, err
	}

	tr := newTracer()
	sent := &frames{}
	traced, err := repeatJobs(cfg.seconds/2, job(tr, sent))
	if err != nil {
		return nil, err
	}
	jobs := float64(len(traced))
	st := tr.stats()
	rep.set("trace.overhead_frac", median(traced)/p50-1)
	setJobLayers(rep, st, jobs)
	serverSpread(rep, tr, "server")
	rep.set("trace.unattributed_frac", layerSelf(st, "job", "server", "coordinator")/totalSelf(st))
	// The wrapper must leave the protocol on its sparse path; this is the
	// run-time form of the fidelity test.
	dense, sparse := get(st, "workload.read").count, get(st, "workload.read.sparse").count
	rep.check(sparse > 0 && dense == 0, "traced coord-product read %d rows through Next, %d through SparseNext", dense, sparse)

	if err := probeSampling(rep, tr, in, sz, ref.Product); err != nil {
		return nil, err
	}
	if err := probeCodec(rep, sent.all(), jobs); err != nil {
		return nil, err
	}
	probeAllocPerRow(rep, func() workload.RowSource { return workload.NewSparseSource(in.a[0]) })
	zeroUnexercised(rep, "words", "rel_err", "workload.", "core.", "comm.", "distributed.", "runtime.", "query.", "trace.")
	return rep, tr.write(cfg.tracePath("product-sparse-tcp"))
}

// productTCPJob runs one coord-product job over loopback TCP: a hub on an
// ephemeral port, one dialing goroutine per server. It returns the
// coordinator's result and the servers' metered uplink bits.
func productTCPJob(ctx context.Context, tr *tracer, in *prodData, proto distributed.CoordinatedProduct, sent *frames) (*distributed.Result, int64, error) {
	root, endRoot := tr.begin("job", noParent)
	defer endRoot()
	ctx, cancel := context.WithTimeout(ctx, prodTimeout)
	defer cancel()
	hub, err := distributed.NewTCPCoordinator("127.0.0.1:0", len(in.a), nil)
	if err != nil {
		return nil, 0, err
	}
	defer hub.Close()
	var bits atomic.Int64
	errs := make(chan error, len(in.a))
	var wg sync.WaitGroup
	for i := range in.a {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sid, end := tr.begin("server", root)
			defer end()
			err := func() error {
				srv, err := distributed.DialTCPServerContext(ctx, hub.Addr(), i, nil, distributed.TCPOptions{})
				if err != nil {
					return err
				}
				defer srv.Close()
				if err := proto.Server(ctx, timeNode(tr, srv.Node(), sid, sent), in.input(i, tr, sid)); err != nil {
					return err
				}
				bits.Add(srv.Meter().Bits())
				return nil
			}()
			if err != nil {
				errs <- fmt.Errorf("server %d: %w", i, err)
				cancel()
			}
		}(i)
	}
	cid, endCoord := tr.begin("coordinator", root)
	var res *distributed.Result
	if err = hub.Accept(ctx); err == nil {
		res, err = proto.Coordinator(ctx, timeNode(tr, hub.Node(), cid, nil))
	}
	endCoord()
	if err != nil {
		cancel()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		err = e // a server's own error explains a coordinator failure better
	}
	if err != nil {
		return nil, 0, fmt.Errorf("TCP coord-product job: %w", err)
	}
	return res, bits.Load(), nil
}

// probeSampling replays the servers' priority sampling and the
// coordinator's combine as the benchmark's own core-layer calls: one
// PrioritySampler per shard fed every row, then CoordinatedEstimate over
// the index-sorted candidates. The estimate must equal the protocol's bit
// for bit.
func probeSampling(rep *report, tr *tracer, in *prodData, sz prodSizes, want *matrix.Dense) error {
	root, end := tr.begin("probe.core", noParent)
	defer end()
	var busy time.Duration
	side := func(shards []*matrix.Sparse) []core.SampledRow {
		var cand []core.SampledRow
		for i, m := range shards {
			ps := core.NewPrioritySampler(in.seed, sz.sample+1)
			span := tr.agg("core.sample", root)
			src := workload.NewSparseSource(m)
			next := int64(in.offsets[i])
			for v, ok := src.SparseNext(); ok; v, ok = src.SparseNext() {
				t0 := time.Now()
				ps.Offer(next, v)
				dt := time.Since(t0)
				span.add(t0, dt)
				busy += dt
				next++
			}
			span.close()
			cand = append(cand, ps.Rows()...)
		}
		sort.Slice(cand, func(i, j int) bool { return cand[i].Index < cand[j].Index })
		return cand
	}
	candA, candB := side(in.a), side(in.b)
	var est *matrix.Dense
	t0 := time.Now()
	err := tr.timed("core.estimate", root, func() (err error) {
		est, err = core.CoordinatedEstimate(candA, candB, sz.sample, sz.dA, sz.dB)
		return err
	})
	estMs := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return err
	}
	rep.check(sameBits(est, want), "core-layer replay of coord-product differs from the protocol's estimate")
	rep.set("core.sample_s", busy.Seconds())
	rep.set("core.estimate_ms", estMs)
	return nil
}
