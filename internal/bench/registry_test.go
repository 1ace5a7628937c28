package bench

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/parallel"
)

func TestRegistryNamesAndSelect(t *testing.T) {
	names := Names()
	if len(names) != 24 {
		t.Fatalf("registry has %d experiments, want 24: %v", len(names), names)
	}
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.Name] || e.Title == "" || e.Run == nil {
			t.Errorf("bad registry entry %+v", e)
		}
		seen[e.Name] = true
	}
	all, err := Select("all")
	if err != nil || len(all) != len(names) {
		t.Fatalf("Select(all) = %d entries, %v", len(all), err)
	}
	got, err := Select("k1,table1")
	if err != nil || len(got) != 2 || got[0].Name != "k1" || got[1].Name != "table1" {
		t.Fatalf("Select keeps list order: %v, %v", got, err)
	}
	_, err = Select("table1,bogus")
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) || !strings.Contains(err.Error(), strings.Join(names, ", ")) {
		t.Fatalf("unknown name error should name it and list the registry: %v", err)
	}
}

// TestRunDriver runs one rows experiment and one series experiment through
// the driver: each gets its name, a wall-clock, its output and its comm
// counters, the baseline round-trips through JSON, and the pool is left at
// the configured width.
func TestRunDriver(t *testing.T) {
	prev := parallel.Workers()
	t.Cleanup(func() { parallel.SetWorkers(prev) })
	cfg := smallConfig()
	cfg.Parallel = 3
	exps, err := Select("f9,f8")
	if err != nil {
		t.Fatal(err)
	}
	var printed []string
	b, err := Run(cfg, exps, func(e Experiment, res Result) {
		printed = append(printed, e.Name)
	})
	if err != nil {
		t.Fatal(err)
	}
	if w := parallel.Workers(); w != cfg.Parallel {
		t.Errorf("pool width after Run = %d, want %d", w, cfg.Parallel)
	}
	if b.PoolWorkers != cfg.Parallel || b.Config != cfg {
		t.Errorf("baseline header %+v does not record the run's config and width", b)
	}
	if !reflect.DeepEqual(printed, []string{"f9", "f8"}) {
		t.Errorf("done saw %v", printed)
	}
	if len(b.Experiments) != 2 {
		t.Fatalf("got %d experiments", len(b.Experiments))
	}
	rows, curves := b.Experiments[0], b.Experiments[1]
	if rows.Name != "f9" || len(rows.Rows) == 0 || rows.Series != nil {
		t.Errorf("rows experiment: %+v", rows)
	}
	if curves.Name != "f8" || len(curves.Series) == 0 || curves.Rows != nil {
		t.Errorf("series experiment: %+v", curves)
	}
	for _, e := range b.Experiments {
		if e.ElapsedMS <= 0 {
			t.Errorf("%s: elapsed_ms = %v", e.Name, e.ElapsedMS)
		}
	}
	out, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Baseline
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, b) {
		t.Errorf("baseline does not round-trip through JSON:\n%s", out)
	}
}
