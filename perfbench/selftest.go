package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the self-test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// selfTest runs every workload BENCHMARK.json declares at tiny sizes, once
// untraced and once traced, and checks that each run passes its output
// checks and emits every declared metric with its declared unit — and that
// the program's metric lists are exactly the declared ones.
func selfTest(benchPath, traceDir string, w io.Writer) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	declared := func(list []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) []metricDef {
		out := make([]metricDef, len(list))
		for i, m := range list {
			out[i] = metricDef{m.Name, m.Unit}
		}
		return out
	}
	if err := sameDefs("end_to_end", declared(bf.EndToEnd), endToEnd); err != nil {
		return err
	}
	if err := sameDefs("per_layer", declared(bf.PerLayer), perLayer); err != nil {
		return err
	}
	if len(bf.Workloads) != len(workloads) {
		return fmt.Errorf("%s declares %d workloads, the program has %d", benchPath, len(bf.Workloads), len(workloads))
	}
	for _, wl := range bf.Workloads {
		run, ok := workloads[wl.Name]
		if !ok {
			return fmt.Errorf("%s declares workload %q, which the program does not have", benchPath, wl.Name)
		}
		for _, traced := range []bool{false, true} {
			rep, err := run(runCfg{seed: 1, seconds: 1, trace: traced, tiny: true, traceDir: traceDir})
			if err != nil {
				return fmt.Errorf("%s (trace %v): %w", wl.Name, traced, err)
			}
			rep.set("max_rss_mb", maxRSSMB())
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			res, err := rep.result(defs)
			if err != nil {
				return fmt.Errorf("%s (trace %v): %w", wl.Name, traced, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s (trace %v): %d of %d checks failed: %v", wl.Name, traced, res.Failed, res.Attempted, rep.notes)
			}
			for _, d := range defs {
				if m := res.Metrics[d.name]; m.Unit != d.unit {
					return fmt.Errorf("%s (trace %v): %s has unit %q, want %q", wl.Name, traced, d.name, m.Unit, d.unit)
				}
			}
			fmt.Fprintf(w, "selftest %s trace=%v: %d metrics, %d checks ok\n", wl.Name, traced, len(res.Metrics), res.Attempted)
		}
	}
	return nil
}

// sameDefs reports whether two metric lists hold the same names with the
// same units, in any order.
func sameDefs(what string, declared, program []metricDef) error {
	key := func(ds []metricDef) []string {
		out := make([]string, len(ds))
		for i, d := range ds {
			out[i] = d.name + " [" + d.unit + "]"
		}
		sort.Strings(out)
		return out
	}
	a, b := key(declared), key(program)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		return fmt.Errorf("BENCHMARK.json %s %v differs from the program's %v", what, a, b)
	}
	return nil
}
