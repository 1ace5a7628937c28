package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/distributed"
	"repro/internal/fd"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// TestMain lets the test binary serve as the service workload's query
// generator child, as the benchmark binary does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(loadgenEnv); spec != "" {
		if err := loadgenMain(spec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The timing RowSource wrapper must keep SparseRowSource exactly when the
// wrapped source has it: protocols choose their nnz-proportional path by a
// type assertion.
func TestTimedSourceKeepsSparsePath(t *testing.T) {
	tr := newTracer()
	if _, ok := timeSource(tr, workload.NewSparseSource(matrix.NewSparse(4)), noParent).(workload.SparseRowSource); !ok {
		t.Fatal("timing wrapper hid SparseNext of a sparse source")
	}
	if _, ok := timeSource(tr, workload.NewDenseSource(matrix.New(2, 3)), noParent).(workload.SparseRowSource); ok {
		t.Fatal("timing wrapper gave a dense source a sparse path")
	}
}

// A traced product-sparse-tcp job must ingest every row through SparseNext
// and return the untraced job's estimate bit for bit, with the same bits
// on the wire.
func TestTracedProductMatchesUntraced(t *testing.T) {
	sz := prodSize(true)
	in := genProduct(7, sz)
	proto := in.protocol(sz)
	ctx := context.Background()
	plain, plainBits, err := productTCPJob(ctx, nil, in, proto, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	sent := &frames{}
	traced, tracedBits, err := productTCPJob(ctx, tr, in, proto, sent)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(plain.Product, traced.Product) || plainBits != tracedBits {
		t.Fatalf("traced job differs from the untraced one (bits %d vs %d)", tracedBits, plainBits)
	}
	st := tr.stats()
	if dense := get(st, "workload.read").count; dense != 0 {
		t.Fatalf("traced job read %d rows through the dense path", dense)
	}
	if got, want := get(st, "workload.read.sparse").count, int64(2*sz.n); got != want {
		t.Fatalf("traced job read %d rows through SparseNext, want %d (A and B)", got, want)
	}
	if got := len(sent.all()); got != 2*prodServers {
		t.Fatalf("node wrapper captured %d messages, want %d", got, 2*prodServers)
	}
}

// The traced fd-merge job, built from the benchmark's own fd-layer calls,
// must reproduce distributed.Run's sketch and words exactly.
func TestTracedFDMatchesRun(t *testing.T) {
	sz := fdSize(true)
	parts := workload.Split(fdInput(3, sz), fdServers, workload.Contiguous, nil)
	ctx := context.Background()
	ref, err := distributed.Run(ctx, distributed.FDMerge{Eps: fdEps, K: fdK}, parts)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	sk, words, err := fdTracedJob(ctx, tr, parts, sz.d, fd.SketchSize(fdEps, fdK), &frames{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(sk, ref.Sketch) || words != ref.Words {
		t.Fatalf("traced fd-merge job differs from distributed.Run (words %v vs %v)", words, ref.Words)
	}
	st := tr.stats()
	if get(st, "fd.shrink").count == 0 || get(st, "fd.merge").count != 1 {
		t.Fatalf("traced job recorded %d shrinks and %d merges", get(st, "fd.shrink").count, get(st, "fd.merge").count)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs); v != 90 || p != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v, want 90 at p90 (ten samples beyond)", v, p)
	}
	if v, p := tail(xs[:20]); v != 20 || p != 100 {
		t.Fatalf("tail of 20 samples = %v at p%v, want the maximum", v, p)
	}
}

// Self time subtracts the union of parallel children and the busy time of
// aggregate children.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.record("job", noParent, at(0), at(100), 0, 0)
	tr.record("server", root, at(0), at(60), 0, 0)
	srv := tr.record("server", root, at(40), at(80), 0, 0)
	tr.record("workload.read", srv, at(40), at(80), 10, int64(5*time.Millisecond))
	st := tr.stats()
	if got := get(st, "job").self; got < 0.0199 || got > 0.0201 {
		t.Fatalf("job self %v s, want 0.020 (100 ms minus the 80 ms the servers cover)", got)
	}
	if got := get(st, "server").self; got < 0.0949 || got > 0.0951 {
		t.Fatalf("server self %v s, want 0.095 (60 + 40 − 5 ms of reads)", got)
	}
}

// The self-test checks every declared metric on every workload; it is the
// same code --selftest runs.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	if err := selfTest(filepath.Join("..", "BENCHMARK.json"), t.TempDir(), io.Discard); err != nil {
		t.Fatal(err)
	}
}
