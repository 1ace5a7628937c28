package distributed

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/matrix"
	"repro/internal/rowsample"
)

// ---------------------------------------------------------------------------
// Theorem 2: deterministic FD merge.
// ---------------------------------------------------------------------------

// FDMerge is the deterministic Theorem 2 protocol: each server streams its
// rows through FD and the aggregation plan's interior merges the sketches
// with the canonical FD reduction. Expected communication: O(s·k·d/ε)
// words. It is the one protocol whose gathers honour a straggler quorum:
// FD sketches merge associatively, so any node can proceed with a subset of
// its subtree, sketching the responsive servers' rows and reporting the
// absentees in Result.Missing. For the same reason it is the one built-in
// protocol that runs under a tree Topology.
type FDMerge struct {
	Eps float64
	K   int
	Env Env
}

// Name implements Protocol.
func (p FDMerge) Name() string { return "fd-merge" }

// Estimand implements Protocol.
func (p FDMerge) Estimand() Estimand { return EstimandCovariance }

func (p FDMerge) withEnv(e Env) Protocol { p.Env = e; return p }

func (p FDMerge) rounds() int { return 1 }

// Server implements Protocol: stream the local rows through FD — one pass,
// O(d·ℓ) working space regardless of the source's size — and send the
// ℓ-row sketch upward (to the coordinator in the star, to the leaf's
// aggregator under a tree plan). Sparse sources take the nnz-proportional
// update path.
func (p FDMerge) Server(ctx context.Context, node Node, in Input) error {
	local, err := in.Covariance(p.Name())
	if err != nil {
		return err
	}
	cfg := p.Env.Config
	if err := fd.CheckMergeable(cfg.Shrink); err != nil {
		return fmt.Errorf("server %d: %w", node.ID(), err)
	}
	_, d := local.Dims()
	sk := fd.New(d, fd.SketchSize(p.Eps, p.K), fd.Options{Obs: cfg.Obs, Strategy: cfg.Shrink})
	rows, sparse, err := streamRows(local, sk.Update, sk.UpdateSparse)
	if err != nil {
		return fmt.Errorf("server %d: %w", node.ID(), err)
	}
	cfg.observer().RowsIngested(int64(rows), sparse)
	b, err := sk.Matrix()
	if err != nil {
		return fmt.Errorf("server %d: %w", node.ID(), err)
	}
	return cfg.sendMatrix(ctx, node, p.Env.parent(node.ID()), "fd-sketch", b)
}

// Coordinator implements Protocol: collect the children's sketches and
// reduce them with the canonical FD merge, yielding an (ε,k)-sketch of A
// (mergeability, Theorem 2). Under a quorum straggler policy
// (Stragglers.Quorum > 0) the merge proceeds once the quorum has reported
// and Result.Missing lists the absent servers — the sketch then covers only
// the responsive servers' rows. Star and tree runs go through the same
// gather-and-merge code, so their results are bit-identical at every
// power-of-two fan-out (see fd.MergeCanonical).
func (p FDMerge) Coordinator(ctx context.Context, node Node) (*Result, error) {
	sk, missing, err := coordFDGather(ctx, node, p.Env.plan(), p.Env.Dim, fd.SketchSize(p.Eps, p.K), p.Env.Config)
	if err != nil {
		return nil, err
	}
	return &Result{Sketch: sk, Missing: missing}, nil
}

// ---------------------------------------------------------------------------
// §3.1 / Algorithm 2: SVS protocol.
// ---------------------------------------------------------------------------

// SVS is the §3.1 / Algorithm 2 randomized (α,0)-sketch protocol with the
// two-round norm calibration. Expected communication: O(√s·d·√log(d/δ)/α)
// words (quadratic g) plus the 2s calibration words. Streaming switches the
// servers to the one-pass pipeline (FD at α/2 locally, then SVS on the
// local sketch) so no server ever materializes its raw input.
type SVS struct {
	Alpha    float64
	Delta    float64
	Sampling SamplingFn
	// Streaming selects the one-pass server pipeline (always quadratic
	// sampling, as in the paper's framework).
	Streaming bool
	Env       Env
}

// Name implements Protocol.
func (p SVS) Name() string {
	if p.Streaming {
		return "svs-streaming"
	}
	return "svs"
}

// Estimand implements Protocol.
func (p SVS) Estimand() Estimand { return EstimandCovariance }

func (p SVS) withEnv(e Env) Protocol { p.Env = e; return p }

func (p SVS) rounds() int { return 2 }

// Server implements Protocol with the two-round calibration the paper
// sketches in footnote 6: send ‖A_i‖F² (one word), receive the global
// ‖A‖F² (one word), then run SVS with the shared sampling function and send
// the sampled rows.
func (p SVS) Server(ctx context.Context, node Node, in Input) error {
	src, err := in.Covariance(p.Name())
	if err != nil {
		return err
	}
	cfg := p.Env.Config
	local, frob2, alpha, sampling, err := p.localInput(node, src)
	if err != nil {
		return err
	}
	if err := node.Send(ctx, comm.CoordinatorID, &comm.Message{Kind: "frob2", Scalars: []float64{frob2}}); err != nil {
		return err
	}
	msg, err := expectKind(ctx, node, "frob2-total")
	if err != nil {
		return err
	}
	g := sampling.Build(p.Env.Servers, local.Cols(), alpha, p.Delta, msg.Scalars[0])
	msg.Release()
	b, err := core.SVS(local, g, cfg.rng(node.ID()))
	if err != nil {
		return fmt.Errorf("server %d SVS: %w", node.ID(), err)
	}
	cfg.observer().SVSSampled(b.Rows(), minDim(local))
	return cfg.sendMatrix(ctx, node, comm.CoordinatorID, "svs-sketch", b)
}

// localInput prepares what the server samples from: the matrix, its exact
// local mass for the calibration round, and the accuracy and sampling
// function to sample it at. The batch form needs the full local block (its
// SVD), so the source is materialized — O(n_i·d) memory. The streaming form
// follows the paper's framework sentence ("each server first independently
// computes a local sketch using a streaming algorithm, then all servers run
// a distributed algorithm on top of the local sketches"): it streams the
// rows through FD at accuracy α/2 (O(d/α) space) and samples the FD sketch
// at α/2, so the combined covariance error is still O(α) and the server
// never holds its raw input.
func (p SVS) localInput(node Node, src RowSource) (m *matrix.Dense, frob2, alpha float64, sampling SamplingFn, err error) {
	ob := p.Env.Config.observer()
	if !p.Streaming {
		local, err := materializeLocal(node, src)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		ob.RowsIngested(int64(local.Rows()), false)
		return local, local.Frob2(), p.Alpha, p.Sampling, nil
	}
	_, d := src.Dims()
	sk := fd.New(d, fd.SketchSize(p.Alpha/2, 0), fd.Options{Obs: p.Env.Config.Obs})
	n, sparse, err := streamRows(src, sk.Update, sk.UpdateSparse)
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("server %d: %w", node.ID(), err)
	}
	ob.RowsIngested(int64(n), sparse)
	b, err := sk.Matrix()
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("server %d: %w", node.ID(), err)
	}
	// The calibration uses the exact streamed mass, not the sketch's
	// (shrunk) mass, so the shared g matches the true ‖A‖F².
	return b, sk.InputFrob2(), p.Alpha / 2, SampleQuadratic, nil
}

// Coordinator implements Protocol. The calibration round makes a partial
// merge unsound (the broadcast mass would include servers whose rows never
// arrive), so stragglers are always fail-fast here.
func (p SVS) Coordinator(ctx context.Context, node Node) (*Result, error) {
	s, cfg := p.Env.Servers, p.Env.Config
	masses, err := gatherAll(ctx, node, s, "frob2", cfg)
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, m := range masses {
		total += m.Scalars[0]
		m.Release()
	}
	if err := broadcast(ctx, node, s, &comm.Message{Kind: "frob2-total", Scalars: []float64{total}}, cfg.observer()); err != nil {
		return nil, err
	}
	sk, err := gatherMatrices(ctx, node, s, "svs-sketch", cfg)
	if err != nil {
		return nil, err
	}
	return &Result{Sketch: sk}, nil
}

// ---------------------------------------------------------------------------
// Baseline [10]: distributed squared-norm row sampling.
// ---------------------------------------------------------------------------

// RowSampling is the [10] baseline: distributed squared-norm row sampling
// with m = ⌈1/ε²⌉ global samples. Cost O(s + d/ε²) words overall.
type RowSampling struct {
	Eps float64
	Env Env
}

// Name implements Protocol.
func (p RowSampling) Name() string { return "row-sampling" }

// Estimand implements Protocol.
func (p RowSampling) Estimand() Estimand { return EstimandCovariance }

func (p RowSampling) withEnv(e Env) Protocol { p.Env = e; return p }

func (p RowSampling) rounds() int { return 2 }

// Server implements Protocol: report the local mass, receive the global
// mass and this server's sample count, sample locally and send the
// rescaled rows.
//
// It runs in two streaming passes over the source — pass 1 accumulates
// ‖A_i‖F² for the calibration round, Reset, pass 2 draws the assigned count
// of rows with rowsample.SampleStream — so working space is O(count·d)
// regardless of the local block's size. Each sampled row is rescaled by
// 1/√(m·p_global) directly against the global mass.
func (p RowSampling) Server(ctx context.Context, node Node, in Input) error {
	local, err := in.Covariance(p.Name())
	if err != nil {
		return err
	}
	cfg := p.Env.Config
	_, d := local.Dims()
	frob2 := 0.0
	rows := 0
	for row, ok := local.Next(); ok; row, ok = local.Next() {
		frob2 += matrix.Norm2(row)
		rows++
	}
	if err := local.Err(); err != nil {
		return fmt.Errorf("server %d: %w", node.ID(), err)
	}
	cfg.observer().RowsIngested(int64(rows), false)
	if err := node.Send(ctx, comm.CoordinatorID, &comm.Message{Kind: "mass", Scalars: []float64{frob2}}); err != nil {
		return err
	}
	msg, err := expectKind(ctx, node, "sample-plan")
	if err != nil {
		return err
	}
	total, count, m := msg.Scalars[0], int(msg.Ints[0]), int(msg.Ints[1])
	msg.Release()
	out := matrix.New(0, d)
	if count > 0 && frob2 > 0 {
		if err := local.Reset(); err != nil {
			return fmt.Errorf("server %d: second sampling pass: %w", node.ID(), err)
		}
		pass2 := 0
		next := func() ([]float64, bool) {
			row, ok := local.Next()
			if ok {
				pass2++
			}
			return row, ok
		}
		out = rowsample.SampleStream(next, d, count, m, frob2, total, cfg.rng(node.ID()))
		if err := local.Err(); err != nil {
			return fmt.Errorf("server %d: %w", node.ID(), err)
		}
		cfg.observer().RowsIngested(int64(pass2), false)
	}
	return cfg.sendMatrix(ctx, node, comm.CoordinatorID, "sample-rows", out)
}

// Coordinator implements Protocol: gather masses, split the m global
// samples across servers proportionally (multinomially, seeded by
// Config.Seed), then stack the returned rows.
func (p RowSampling) Coordinator(ctx context.Context, node Node) (*Result, error) {
	s, cfg, m := p.Env.Servers, p.Env.Config, rowsample.SampleSize(p.Eps)
	masses, err := gatherAll(ctx, node, s, "mass", cfg)
	if err != nil {
		return nil, err
	}
	total := 0.0
	vals := make([]float64, s)
	for i, msg := range masses {
		vals[i] = msg.Scalars[0]
		total += vals[i]
		msg.Release()
	}
	// The proportional split is the same multinomial walk the estimator
	// uses locally; rowsample.MultinomialSplit handles the rounding and
	// zero-mass edge cases (a hand-rolled copy here used to drop samples).
	split := rowsample.MultinomialSplit(vals, m, rand.New(rand.NewSource(cfg.Seed)))
	for i, count := range split {
		if err := node.Send(ctx, i, &comm.Message{
			Kind:    "sample-plan",
			Scalars: []float64{total},
			Ints:    []int64{int64(count), int64(m)},
		}); err != nil {
			return nil, err
		}
	}
	sk, err := gatherMatrices(ctx, node, s, "sample-rows", cfg)
	if err != nil {
		return nil, err
	}
	return &Result{Sketch: sk}, nil
}

// ---------------------------------------------------------------------------
// Trivial baseline: ship everything.
// ---------------------------------------------------------------------------

// FullTransfer ships every row to the coordinator — the trivial exact
// algorithm whose O(n·d) (= O(d³) in the paper's headline setting with
// n = s/ε = d²) cost anchors the comparisons. Exact cost: n·d + s words
// (one chunk-count header word per server). The coordinator returns the
// exact aggregated form (≤ d rows), so downstream error is zero.
type FullTransfer struct {
	Env Env
}

// Name implements Protocol.
func (p FullTransfer) Name() string { return "full-transfer" }

// Estimand implements Protocol.
func (p FullTransfer) Estimand() Estimand { return EstimandCovariance }

func (p FullTransfer) withEnv(e Env) Protocol { p.Env = e; return p }

func (p FullTransfer) rounds() int { return 1 }

// fullTransferChunk is the number of rows per "raw" message: large enough
// that framing is negligible, small enough that a server streaming a
// file-backed source holds O(fullTransferChunk·d) rows at a time instead of
// its whole block.
const fullTransferChunk = 512

// Server implements Protocol: stream the local rows to the coordinator in
// chunks of fullTransferChunk — one "raw-dims" header (the chunk count, one
// word) followed by the "raw" chunk messages. Exact cost: n_i·d + 1 words.
func (p FullTransfer) Server(ctx context.Context, node Node, in Input) error {
	local, err := in.Covariance(p.Name())
	if err != nil {
		return err
	}
	n, d := local.Dims()
	chunks := (n + fullTransferChunk - 1) / fullTransferChunk
	if err := node.Send(ctx, comm.CoordinatorID, &comm.Message{Kind: "raw-dims", Ints: []int64{int64(chunks)}}); err != nil {
		return err
	}
	sent := 0
	for c := 0; c < chunks; c++ {
		rows := fullTransferChunk
		if n-sent < rows {
			rows = n - sent
		}
		// A fresh matrix per chunk: the in-memory transport shares the
		// message payload by pointer, so a reused buffer would alias rows
		// still in flight.
		chunk := matrix.New(rows, d)
		for i := 0; i < rows; i++ {
			row, ok := local.Next()
			if !ok {
				if err := local.Err(); err != nil {
					return fmt.Errorf("server %d: %w", node.ID(), err)
				}
				return fmt.Errorf("server %d: source delivered %d of its declared %d rows", node.ID(), sent+i, n)
			}
			copy(chunk.Row(i), row)
		}
		sent += rows
		if err := p.Env.Config.sendMatrix(ctx, node, comm.CoordinatorID, "raw", chunk); err != nil {
			return err
		}
	}
	p.Env.Config.observer().RowsIngested(int64(sent), false)
	return nil
}

// Coordinator implements Protocol: collect every server's chunked rows,
// reassemble them in server order, and return the exact aggregated form
// plus the Gram matrix.
func (p FullTransfer) Coordinator(ctx context.Context, node Node) (*Result, error) {
	s, cfg := p.Env.Servers, p.Env.Config
	// Exactness needs every row, so a partial-participation quorum is a
	// configuration error here, same as in every strict gather.
	if err := rejectQuorum(cfg, "full-transfer"); err != nil {
		return nil, err
	}
	if err := cfg.checkWire(); err != nil {
		return nil, err
	}
	// Headers and chunks interleave freely across servers (a fast server's
	// chunks can arrive before a slow server's header), so one loop accepts
	// both kinds and reconciles the declared chunk counts at the end.
	declared := make([]int, s)
	heard := make([]bool, s)
	headers := 0
	wantChunks, gotChunks := 0, 0
	chunks := make([][]*matrix.Dense, s)
	for headers < s || gotChunks < wantChunks {
		msg, err := recvPolicy(ctx, node, cfg.Stragglers.Timeout)
		if peer, ok := closedPeer(err); ok && peer >= 0 && peer < s && heard[peer] && len(chunks[peer]) >= declared[peer] {
			continue // that server has sent everything it declared
		}
		if err != nil {
			return nil, err
		}
		if msg.From < 0 || msg.From >= s {
			return nil, fmt.Errorf("distributed: %q message from unknown server %d", msg.Kind, msg.From)
		}
		switch msg.Kind {
		case "raw-dims":
			if len(msg.Ints) != 1 || msg.Ints[0] < 0 {
				return nil, fmt.Errorf("distributed: malformed raw-dims from server %d", msg.From)
			}
			declared[msg.From] = int(msg.Ints[0])
			heard[msg.From] = true
			headers++
			wantChunks += declared[msg.From]
		case "raw":
			m, err := recvMatrix(msg)
			if err != nil {
				return nil, err
			}
			chunks[msg.From] = append(chunks[msg.From], m)
			gotChunks++
		default:
			return nil, fmt.Errorf("distributed: unexpected %q message (want raw-dims or raw)", msg.Kind)
		}
	}
	all := make([]*matrix.Dense, 0, gotChunks)
	for i := 0; i < s; i++ {
		if len(chunks[i]) != declared[i] {
			return nil, fmt.Errorf("distributed: server %d sent %d raw chunks, declared %d", i, len(chunks[i]), declared[i])
		}
		all = append(all, chunks[i]...)
	}
	a := matrix.Stack(all...)
	agg, err := core.Aggregated(a)
	if err != nil {
		return nil, err
	}
	return &Result{Sketch: agg, Gram: a.Gram()}, nil
}
