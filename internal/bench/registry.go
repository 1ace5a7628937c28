package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// Experiment is one entry of the registry: a paper table, figure sweep,
// ablation or frontier that sketchbench prints and Run times.
type Experiment struct {
	Name  string // the sketchbench -experiment name
	Title string // the heading printed above the output
	Run   func(Config) (Result, error)
	// Check, when set, verifies the experiment's headline claim on its rows
	// and describes the outcome; sketchbench prints it after the rows and
	// writes no baseline when it fails.
	Check func([]Row) (string, error)
}

// Result is an experiment's output: tables of rows, or figure series over
// the x axis XLabel.
type Result struct {
	Tables [][]Row // printed one table each
	Series []Series
	XLabel string
}

// Rows returns the rows of every table in order.
func (r Result) Rows() []Row {
	var rows []Row
	for _, t := range r.Tables {
		rows = append(rows, t...)
	}
	return rows
}

// table adapts a row-producing experiment to the registry.
func table(fn func(Config) ([]Row, error)) func(Config) (Result, error) {
	return func(cfg Config) (Result, error) {
		rows, err := fn(cfg)
		return Result{Tables: [][]Row{rows}}, err
	}
}

// Experiments is the registry, in the order `-experiment all` runs it.
var Experiments = []Experiment{
	{Name: "table1", Title: "Table 1: covariance sketch communication (words) and guarantees", Run: table(Table1)},
	{Name: "table2", Title: "Table 2: distributed PCA communication (words) and quality ratio", Run: table(Table2)},
	{Name: "f1", Title: "F1: headline s=d, error ‖A‖F²/d — words vs d (new is d^2.5·√log d)", Run: func(cfg Config) (Result, error) {
		s, err := HeadlineD25([]int{16, 24, 32, 48, 64}, cfg.Seed)
		return Result{Series: s, XLabel: "d"}, err
	}},
	{Name: "f2", Title: "F2: words vs s (deterministic linear vs randomized √s)", Run: func(cfg Config) (Result, error) {
		s, err := CommVsServers([]int{2, 4, 8, 16, 32, 64, 128}, cfg.D, cfg.Eps, cfg.Seed)
		return Result{Series: s, XLabel: "s"}, err
	}},
	{Name: "f3", Title: "F3: words vs 1/ε (sampling's quadratic blowup)", Run: func(cfg Config) (Result, error) {
		s, err := CommVsEpsilon([]float64{0.4, 0.3, 0.2, 0.1, 0.05}, cfg.S, cfg.D, cfg.Seed)
		return Result{Series: s, XLabel: "1/eps"}, err
	}},
	{Name: "f4", Title: "F4: error vs communication frontier (relative coverr)", Run: func(cfg Config) (Result, error) {
		s, err := ErrorFrontier([]float64{0.4, 0.3, 0.2, 0.1, 0.05}, cfg.S, cfg.D, 0.8, cfg.Seed)
		return Result{Series: s, XLabel: "words"}, err
	}},
	{Name: "f5", Title: "F5: Thm5 linear vs Thm6 quadratic sampling function (words & rel. error)", Run: func(cfg Config) (Result, error) {
		s, err := SamplingFunctionAblation([]int{16, 32, 64, 128, 256}, cfg.S, cfg.Eps, cfg.Seed)
		return Result{Series: s, XLabel: "d"}, err
	}},
	{Name: "f6", Title: "F6: §3.3 bit complexity — quantization and the rank≤2k exact protocol", Run: table(BitComplexity)},
	{Name: "f7", Title: "F7: PCA quality ratio vs k (Lemma 1 / Lemma 8)", Run: func(cfg Config) (Result, error) {
		s, err := PCAQuality([]int{2, 3, 5, 8, 12}, cfg)
		return Result{Series: s, XLabel: "k"}, err
	}},
	{Name: "f8", Title: "F8: lower-bound machinery — Lemma 3 probability, Lemma 2 gap vs d", Run: func(cfg Config) (Result, error) {
		s, err := LowerBoundSeparation([]int{8, 12, 16, 24, 32}, cfg.Seed)
		return Result{Series: s, XLabel: "d"}, err
	}},
	{Name: "f9", Title: "F9: per-server working space (words)", Run: table(StreamingSpace)},
	{Name: "f10", Title: "F10: mergeability — merged vs direct FD error across random partitions", Run: func(cfg Config) (Result, error) {
		s, err := Mergeability(cfg, 8)
		return Result{Series: s, XLabel: "trial"}, err
	}},
	{Name: "a1", Title: "A1: Bernoulli vs i.i.d. sampling inside SVS (max rel. error)", Run: table(func(cfg Config) ([]Row, error) {
		return BernoulliVsIID(cfg, 5)
	})},
	{Name: "a2", Title: "A2: final FD re-compression of Q (size vs extra error)", Run: table(FinalCompressAblation)},
	{Name: "a3", Title: "A3: FD buffer factor (runtime at identical guarantee)", Run: table(BufferFactorAblation)},
	{Name: "a4", Title: "A4: FD shrink factorization — Jacobi vs Gram vs randomized", Run: table(SVDMethodAblation)},
	{Name: "a5", Title: "A5: sparse-input FD ([15] regime) — update path and shrink factorization", Run: func(cfg Config) (Result, error) {
		var res Result
		for _, density := range []float64{0.05, 0.2} {
			rows, err := SparseInputAblation(cfg, density)
			if err != nil {
				return res, err
			}
			res.Tables = append(res.Tables, rows)
		}
		return res, nil
	}},
	{Name: "p1", Title: "P1: distributed power iteration — quality and words vs rounds", Run: func(cfg Config) (Result, error) {
		s, err := PowerIterationCurve(cfg, []int{1, 2, 4, 8, 16})
		return Result{Series: s, XLabel: "rounds"}, err
	}},
	{Name: "m1", Title: "M1: continuous tracking ([17] model) — policies incl. the §1.5 SVS question", Run: table(func(cfg Config) ([]Row, error) {
		return MonitoringComparison(cfg, 256)
	})},
	{Name: "i1", Title: "I1: ingestion throughput — in-memory vs file-backed vs sparse sources", Run: table(IngestionThroughput)},
	{Name: "t1", Title: "T1: tree aggregation — words, root fan-in, and bit-identity vs fan-out", Run: table(func(cfg Config) ([]Row, error) {
		return FanoutSweep(cfg, sweepFanouts(cfg.S))
	})},
	{Name: "s1", Title: "S1: shrink-strategy frontier — covariance error vs ingest throughput", Run: table(ShrinkFrontier)},
	{Name: "k1", Title: "K1: blocked kernels vs reference loops, and float64 vs float32 wire", Run: table(KernelBench)},
	{Name: "c1", Title: "C1: product estimand — coord-product vs SVS [A|B], words vs relative error", Run: table(ProductFrontier), Check: func(rows []Row) (string, error) {
		density, err := CheckProductHeadline(rows)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("coordinated sampling beats svs [A|B] at density=%g", density), nil
	}},
}

// sweepFanouts picks the fan-outs for the t1 sweep: powers of two up to s/2
// (bit-identical to the star by the canonical-merge grouping invariance),
// capped so the table stays readable at large s.
func sweepFanouts(s int) []int {
	var fs []int
	for f := 2; f <= s/2 && len(fs) < 6; f *= 2 {
		fs = append(fs, f)
	}
	if len(fs) == 0 {
		fs = []int{2}
	}
	return fs
}

// Names lists the registry's experiment names in order.
func Names() []string {
	names := make([]string, len(Experiments))
	for i, e := range Experiments {
		names[i] = e.Name
	}
	return names
}

// Select resolves "all" or a comma-separated list of registry names to
// their entries, in the order listed.
func Select(list string) ([]Experiment, error) {
	if list == "all" {
		return Experiments, nil
	}
	var out []Experiment
next:
	for _, name := range strings.Split(list, ",") {
		for _, e := range Experiments {
			if e.Name == name {
				out = append(out, e)
				continue next
			}
		}
		return nil, fmt.Errorf("unknown experiment %q (want all or a comma-separated list of %s)", name, strings.Join(Names(), ", "))
	}
	return out, nil
}

// Run is the one experiment driver. It applies cfg.Parallel to the compute
// pool once, then runs exps in order, timing each and recording the
// communication and kernel counters it moved, and returns the whole run as
// a Baseline. done, when non-nil, receives each experiment's result as soon
// as it finishes.
//
// The counters are read as the difference of two snapshots of the default
// observer's registry around the experiment, so an observer the caller
// installed (sketchbench -trace/-metrics) keeps seeing every run; when none
// is installed, Run installs a fresh one for its duration.
func Run(cfg Config, exps []Experiment, done func(Experiment, Result)) (*Baseline, error) {
	if cfg.Parallel > 0 {
		parallel.SetWorkers(cfg.Parallel)
	}
	ob := obs.Default()
	if ob == nil {
		ob = obs.NewObserver(obs.NewRegistry(), nil)
		obs.SetDefault(ob)
		defer obs.SetDefault(nil)
	}
	b := &Baseline{Config: cfg, GoMaxProcs: runtime.GOMAXPROCS(0), PoolWorkers: parallel.Workers()}
	for _, e := range exps {
		before := ob.Registry().Snapshot().Counters
		start := time.Now()
		res, err := e.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		elapsed := time.Since(start)
		after := ob.Registry().Snapshot().Counters
		moved := func(name string) int64 { return after[name] - before[name] }
		b.Experiments = append(b.Experiments, BaselineExperiment{
			Name:      e.Name,
			ElapsedMS: float64(elapsed.Microseconds()) / 1000,
			Rows:      res.Rows(),
			Series:    res.Series,
			Comm: BaselineComm{
				Bits:           moved("comm.bits_total"),
				Messages:       moved("comm.messages_total"),
				Rounds:         moved("comm.rounds_total"),
				FDShrinks:      moved("fd.shrinks"),
				SVSSampledRows: moved("svs.sampled_rows"),
				PoolForCalls:   moved("pool.for_calls"),
			},
		})
		if done != nil {
			done(e, res)
		}
	}
	return b, nil
}
