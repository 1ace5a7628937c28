// Command sketchbench regenerates the paper's evaluation artifacts: Table 1
// (covariance-sketch communication costs), Table 2 (distributed PCA), the
// figure-style sweeps F1–F10, and the ablations and frontiers described in
// DESIGN.md. The experiments come from one registry (bench.Experiments).
//
// Usage:
//
//	sketchbench -experiment all
//	sketchbench -experiment table1 -s 32 -d 128 -k 5 -eps 0.05
//	sketchbench -experiment f2 -seed 7
//	sketchbench -experiment table1,table2,i1 -json BENCH.json
//
// Output is aligned text (or CSV); "theory" columns are the paper's
// formulas with unit constants, "words" are measured at the transport
// layer. -json also writes the run as one bench.Baseline document: per
// experiment, its wall-clock, rows or series, and communication counters.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/distsketch"
	"repro/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiments to run: all, or a comma-separated list of "+strings.Join(bench.Names(), ", "))
		seed       = flag.Int64("seed", 1, "random seed")
		n          = flag.Int("n", 1<<13, "global row count")
		d          = flag.Int("d", 64, "column dimension")
		s          = flag.Int("s", 16, "number of servers")
		k          = flag.Int("k", 5, "rank parameter")
		eps        = flag.Float64("eps", 0.1, "accuracy epsilon")
		format     = flag.String("format", "text", "output format: text or csv")
		par        = flag.Int("parallel", 0, "compute worker pool width (0 = GOMAXPROCS)")
		jsonOut    = flag.String("json", "", "also write the run as one JSON baseline (wall-clock, rows or series, comm counters per experiment) to this file")
		shrink     = flag.String("shrink", "", "FD shrink strategy for the FD-based experiments: fd, fast-fd (default), alpha-fd; isvd and compensative are single-node only and rejected by fd-merge")
		alpha      = flag.Float64("alpha", 0.5, "alpha parameter for -shrink alpha-fd, in (0,1]")
		trace      = flag.String("trace", "", "write a JSONL protocol trace of every run to this file")
		metrics    = flag.String("metrics", "", "write a metrics registry snapshot (JSON) on exit, - for stdout")
	)
	flag.Parse()
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "sketchbench: unknown format %q\n", *format)
		os.Exit(1)
	}
	finish, err := setupObservability(*trace, *metrics)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sketchbench:", err)
		os.Exit(1)
	}
	cfg := bench.Config{Seed: *seed, N: *n, D: *d, S: *s, K: *k, Eps: *eps, Parallel: *par, Shrink: *shrink, Alpha: *alpha}
	err = run(strings.ToLower(*experiment), cfg, *format == "csv", *jsonOut)
	if ferr := finish(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sketchbench:", err)
		os.Exit(1)
	}
}

// run drives the selected experiments through bench.Run, printing each as
// it finishes, and writes the baseline to jsonPath when one is given. A
// failed headline check (C1's) is printed like any other outcome but keeps
// the baseline from being written.
func run(list string, cfg bench.Config, csvOut bool, jsonPath string) error {
	exps, err := bench.Select(list)
	if err != nil {
		return err
	}
	var checkErr error
	b, err := bench.Run(cfg, exps, func(e bench.Experiment, res bench.Result) {
		if csvOut {
			fmt.Printf("# %s\n", e.Title)
		} else {
			fmt.Printf("\n=== %s ===\n", e.Title)
		}
		for _, rows := range res.Tables {
			if csvOut {
				fmt.Print(bench.RowsCSV(rows))
			} else {
				fmt.Print(bench.FormatRows(rows))
			}
		}
		if res.Tables == nil {
			if csvOut {
				fmt.Print(bench.SeriesCSV(res.XLabel, res.Series))
			} else {
				fmt.Print(bench.FormatSeries(res.XLabel, res.Series))
			}
		}
		if e.Check != nil {
			msg, err := e.Check(res.Rows())
			if err != nil {
				msg, checkErr = err.Error(), fmt.Errorf("%s: %w", e.Name, err)
			}
			fmt.Printf("headline: %s\n", msg)
		}
	})
	if err != nil || jsonPath == "" {
		return err
	}
	if checkErr != nil {
		return fmt.Errorf("baseline not written: %w", checkErr)
	}
	out, err := b.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("baseline written to %s (%d experiments, pool width %d)\n", jsonPath, len(b.Experiments), b.PoolWorkers)
	return nil
}

// setupObservability installs a process-wide observer when -trace or
// -metrics is given; every protocol run the experiments launch reports into
// it through the default-observer fallback. The returned finish flushes the
// trace and writes the metrics snapshot.
func setupObservability(trace, metrics string) (finish func() error, err error) {
	if trace == "" && metrics == "" {
		return func() error { return nil }, nil
	}
	reg := distsketch.NewRegistry()
	var tr *distsketch.Tracer
	if trace != "" {
		tr, err = distsketch.NewTracerFile(trace)
		if err != nil {
			return nil, err
		}
	}
	distsketch.SetDefaultObserver(distsketch.NewObserver(reg, tr))
	return func() error {
		var first error
		if tr != nil {
			first = tr.Close()
		}
		if metrics != "" {
			out := os.Stdout
			if metrics != "-" {
				f, err := os.Create(metrics)
				if err != nil {
					if first == nil {
						first = err
					}
					return first
				}
				defer f.Close()
				out = f
			}
			if err := reg.WriteJSON(out); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}
