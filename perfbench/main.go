// Command perfbench is the repository's benchmark. It runs one workload
// against the sketching runtime, checks the outputs, and prints the
// workload's metrics as the last line of standard output:
//
//	perfbench --workload fd-merge-mem --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation;
// --trace 1 spends half the run untraced and half traced (spans around the
// benchmark's calls into each layer, kept in memory and written to
// --trace-dir at the end) and prints the per-layer metrics. --workload all
// runs every workload in turn, each in a process of its own. --selftest runs
// every workload at tiny sizes in both modes and checks that every metric
// BENCHMARK.json names is emitted with its unit. README.md describes the
// workloads, the metrics and which end-to-end metric each layer should move.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

const (
	// A run builds its inputs at least minSetups times and for at least
	// setupSeconds; setup_s is the median build time.
	minSetups    = 3
	setupSeconds = 1.0
	// minJobs is the fewest repetitions a one-shot workload measures, however
	// short the run.
	minJobs = 3
)

// runCfg is one invocation's settings.
type runCfg struct {
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	traceDir string
}

// untracedSeconds is how long the untraced measurement runs: all of the
// run, or its first half when the second half is traced.
func (c runCfg) untracedSeconds() float64 {
	if c.trace {
		return c.seconds / 2
	}
	return c.seconds
}

func (c runCfg) tracePath(workload string) string {
	return filepath.Join(c.traceDir, fmt.Sprintf("%s-seed%d.jsonl", workload, c.seed))
}

var workloads = map[string]func(runCfg) (*report, error){
	"fd-merge-mem":         runFDMerge,
	"product-sparse-tcp":   runProduct,
	"service-ingest-query": runService,
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"fd-merge-mem", "product-sparse-tcp", "service-ingest-query"}

// runAll runs every workload in a child process of its own (so each one's
// max_rss_mb is its own), passing the other flags through, and streams
// their output. It fails if any workload fails or reports a failed check.
func runAll(args []string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for _, name := range workloadOrder {
		var out bytes.Buffer
		cmd := exec.Command(exe, append(args, "--workload", name)...)
		cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &out), os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if !bytes.Contains(out.Bytes(), []byte(`{"correct":true,`)) {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d workloads reported failed checks", failed)
	}
	return nil
}

func main() {
	if spec := os.Getenv(loadgenEnv); spec != "" {
		if err := loadgenMain(spec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench query generator:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload to run: fd-merge-mem, product-sparse-tcp, service-ingest-query, or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "1 for the traced run that prints the per-layer metrics")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "where a traced run writes its spans")
	selftest := flag.Bool("selftest", false, "run every workload at tiny sizes and check the emitted metrics against BENCHMARK.json")
	flag.Parse()

	if *selftest {
		if err := selfTest("BENCHMARK.json", *traceDir, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench selftest:", err)
			os.Exit(1)
		}
		return
	}
	if *name == "all" {
		var args []string
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "--"+f.Name, f.Value.String())
			}
		})
		if err := runAll(args); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench all:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n", *name, *trace, *seconds)
		os.Exit(2)
	}
	cfg := runCfg{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir}
	rep, err := run(cfg)
	if err == nil {
		rep.set("max_rss_mb", maxRSSMB())
		defs := endToEnd
		if cfg.trace {
			defs = perLayer
		}
		err = rep.emit(defs)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *name, err)
		os.Exit(1)
	}
}
