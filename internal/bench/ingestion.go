package bench

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/distributed"
	"repro/internal/workload"
)

// IngestionThroughput is experiment I1: server-side ingestion throughput of
// the streaming RowSource layer. It runs the same FD-merge protocol three
// ways — in-memory DenseSources, file-backed sources streamed out of core
// from per-server .dskm shards, and SparseSources taking FD's
// nnz-proportional update path — and reports wall-clock, rows/s, and whether
// the resulting sketch is bit-identical to the in-memory run (it must be:
// every variant drives the same single source-based code path).
func IngestionThroughput(cfg Config) ([]Row, error) {
	cfg.applyParallel()
	ctx := context.Background()
	a, parts := makeLowRank(cfg)
	run := func(sources []workload.RowSource) (*distributed.Result, time.Duration, error) {
		start := time.Now()
		res, err := distributed.RunWorkload(ctx, distributed.FDMerge{Eps: cfg.Eps, K: cfg.K}, distributed.CovarianceInputs(sources), distributed.WithSeed(cfg.Seed))
		return res, time.Since(start), err
	}
	row := func(algo string, res *distributed.Result, elapsed time.Duration, n int, same bool) (Row, error) {
		r, err := covRow("I1", algo, cfg, a, res.Sketch, res.Words, 0, cfg.Eps, cfg.K)
		if err != nil {
			return Row{}, err
		}
		rate := float64(n) / elapsed.Seconds()
		r.Note = fmt.Sprintf("%v, %.3g rows/s, identical=%v", elapsed.Round(time.Millisecond), rate, same)
		return r, nil
	}

	// In-memory reference.
	memRes, memElapsed, err := run(workload.DenseSources(parts))
	if err != nil {
		return nil, err
	}
	memRow, err := row("FDMerge in-memory", memRes, memElapsed, cfg.N, true)
	if err != nil {
		return nil, err
	}
	rows := []Row{memRow}

	// File-backed: each server streams its own shard file out of core.
	dir, err := os.MkdirTemp("", "ingest-bench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fileSources := make([]workload.RowSource, len(parts))
	for i, p := range parts {
		path := filepath.Join(dir, fmt.Sprintf("shard.%d.dskm", i))
		if err := workload.SaveMatrix(path, p); err != nil {
			return nil, err
		}
		src, err := workload.OpenFileSource(path)
		if err != nil {
			return nil, err
		}
		defer src.Close()
		fileSources[i] = src
	}
	fileRes, fileElapsed, err := run(fileSources)
	if err != nil {
		return nil, err
	}
	fileRow, err := row("FDMerge file-backed", fileRes, fileElapsed, cfg.N,
		fileRes.Sketch.Equal(memRes.Sketch))
	if err != nil {
		return nil, err
	}
	rows = append(rows, fileRow)

	// Sparse: the A5 regime through the distributed protocol. Both runs see
	// the same rows, so the sparse FD update path must land on the same
	// sketch as the dense one.
	rng := rand.New(rand.NewSource(cfg.Seed))
	sp := workload.SparseRandom(rng, cfg.N, cfg.D, 0.05)
	spDense := sp.ToDense()
	spParts := workload.SplitSparseContiguous(sp, cfg.S)
	spSources := make([]workload.RowSource, len(spParts))
	for i, p := range spParts {
		spSources[i] = workload.NewSparseSource(p)
	}
	denseRes, _, err := run(workload.DenseSources(workload.Split(spDense, cfg.S, workload.Contiguous, nil)))
	if err != nil {
		return nil, err
	}
	spRes, spElapsed, err := run(spSources)
	if err != nil {
		return nil, err
	}
	spCfg := cfg
	spRow, err := covRow("I1", "FDMerge sparse", spCfg, spDense, spRes.Sketch, spRes.Words, 0, cfg.Eps, cfg.K)
	if err != nil {
		return nil, err
	}
	rate := float64(cfg.N) / spElapsed.Seconds()
	spRow.Note = fmt.Sprintf("%v, %.3g rows/s, nnz %d, identical=%v",
		spElapsed.Round(time.Millisecond), rate, sp.NNZ(), spRes.Sketch.Equal(denseRes.Sketch))
	rows = append(rows, spRow)
	return rows, nil
}
