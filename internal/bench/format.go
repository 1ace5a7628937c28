package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Baseline captures one driver run (see Run) for committing as a regression
// baseline (e.g. BENCH_PR2.json): the workload config, the compute pool
// width, and per-experiment wall-clock plus measured rows or series. Words are exact and must not
// move across parallelism changes; wall-clock is machine-dependent context.
type Baseline struct {
	Config      Config               `json:"config"`
	GoMaxProcs  int                  `json:"gomaxprocs"`
	PoolWorkers int                  `json:"pool_workers"`
	Experiments []BaselineExperiment `json:"experiments"`
}

// BaselineExperiment is one experiment's timing and output inside a
// Baseline: rows for the table experiments, series for the figure sweeps.
type BaselineExperiment struct {
	Name      string       `json:"name"`
	ElapsedMS float64      `json:"elapsed_ms"`
	Rows      []Row        `json:"rows"`
	Series    []Series     `json:"series,omitempty"`
	Comm      BaselineComm `json:"comm"`
}

// BaselineComm is the observability layer's view of one experiment: exact
// communication totals plus kernel activity, captured by an observer scoped
// to the experiment. Bits/messages/rounds are deterministic for a fixed
// config and must not move across parallelism changes.
type BaselineComm struct {
	Bits           int64 `json:"bits"`
	Messages       int64 `json:"messages"`
	Rounds         int64 `json:"rounds"`
	FDShrinks      int64 `json:"fd_shrinks"`
	SVSSampledRows int64 `json:"svs_sampled_rows"`
	PoolForCalls   int64 `json:"pool_for_calls"`
}

// JSON renders the baseline with stable indentation for committing.
func (b *Baseline) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// RowsCSV renders rows as CSV with a header, for piping into plotting
// tools.
func RowsCSV(rows []Row) string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	_ = w.Write([]string{"experiment", "algorithm", "s", "d", "k", "eps", "words", "theory_words", "error", "budget", "ok", "note"})
	for _, r := range rows {
		_ = w.Write([]string{
			r.Experiment, r.Algorithm,
			strconv.Itoa(r.S), strconv.Itoa(r.D), strconv.Itoa(r.K),
			fmt.Sprintf("%g", r.Eps),
			fmt.Sprintf("%g", r.Words), fmt.Sprintf("%g", r.TheoryW),
			fmt.Sprintf("%g", r.CovErr), fmt.Sprintf("%g", r.Budget),
			strconv.FormatBool(r.OK), r.Note,
		})
	}
	w.Flush()
	return b.String()
}

// SeriesCSV renders sweeps as CSV: one x column and one column per series.
func SeriesCSV(xlabel string, series []Series) string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	header := []string{xlabel}
	for _, s := range series {
		header = append(header, s.Name)
	}
	_ = w.Write(header)
	if len(series) > 0 {
		for i := range series[0].X {
			rec := []string{fmt.Sprintf("%g", series[0].X[i])}
			for _, s := range series {
				if i < len(s.Y) {
					rec = append(rec, fmt.Sprintf("%g", s.Y[i]))
				} else {
					rec = append(rec, "")
				}
			}
			_ = w.Write(rec)
		}
	}
	w.Flush()
	return b.String()
}
