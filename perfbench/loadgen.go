package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"time"
)

// loadgenEnv carries a query generator's settings to a child process of the
// benchmark; its presence makes the process a generator, not a benchmark run.
const loadgenEnv = "PERFBENCH_LOADGEN"

type loadgenSpec struct {
	Base  string  `json:"base"`
	Rate  float64 `json:"rate"`
	Until int64   `json:"until_unix_ns"`
	Seed  int64   `json:"seed"`
	D     int     `json:"d"`
}

// queryRecord is one query as the generator saw it, in Unix nanoseconds.
type queryRecord struct {
	Kind string `json:"kind"`
	Due  int64  `json:"due"`
	Sent int64  `json:"sent"`
	Done int64  `json:"done"`
	Err  string `json:"err,omitempty"`
}

type loadgenResult struct {
	Queries []queryRecord `json:"queries"`
	LateMs  []float64     `json:"late_ms"`
}

// spawnLoadgen runs the generator in a child process (this same executable)
// and waits for it to finish.
func spawnLoadgen(ctx context.Context, spec loadgenSpec) (*loadgenResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), loadgenEnv+"="+string(b))
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("query generator: %w", err)
	}
	var res loadgenResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("query generator output: %w", err)
	}
	return &res, nil
}

// loadgenMain is the child process: it reads its spec from the environment,
// runs the generator and prints the records as JSON.
func loadgenMain(raw string) error {
	var spec loadgenSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		return err
	}
	res := generate(spec)
	return json.NewEncoder(os.Stdout).Encode(res)
}

// generate drives the query API open loop: queries arrive as a Poisson
// process at spec.Rate (independent users; exponential gaps drawn from
// spec.Seed, so no fixed period can lock onto the daemon's scheduling
// ticks), whatever happened to earlier queries, cycling through
// queryKinds. Each is timed from its due time, so a stall also charges the
// queries that queued behind it. svcConns workers each hold one keep-alive
// connection.
func generate(spec loadgenSpec) *loadgenResult {
	start := time.Now()
	until := time.Unix(0, spec.Until)
	rng := rand.New(rand.NewSource(spec.Seed))
	var offsets []time.Duration
	for at := time.Duration(0); start.Add(at).Before(until); at += time.Duration(rng.ExpFloat64() / spec.Rate * float64(time.Second)) {
		offsets = append(offsets, at)
	}
	type due struct {
		kind string
		at   time.Time
	}
	queue := make(chan due, len(offsets)) // every query of the run, so dispatch never blocks
	client := &http.Client{
		Timeout:   svcWait,
		Transport: &http.Transport{MaxConnsPerHost: svcConns, MaxIdleConnsPerHost: svcConns},
	}
	defer client.CloseIdleConnections()
	res := &loadgenResult{}
	var mu sync.Mutex
	var workers sync.WaitGroup
	for w := 0; w < svcConns; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for q := range queue {
				rec := queryRecord{Kind: q.kind, Due: q.at.UnixNano(), Sent: time.Now().UnixNano()}
				if err := query(client, spec.Base, q.kind, spec.D); err != nil {
					rec.Err = err.Error()
				}
				rec.Done = time.Now().UnixNano()
				mu.Lock()
				res.Queries = append(res.Queries, rec)
				mu.Unlock()
			}
		}()
	}
	for i, off := range offsets {
		at := start.Add(off)
		time.Sleep(time.Until(at))
		res.LateMs = append(res.LateMs, float64(time.Since(at).Nanoseconds())/1e6)
		queue <- due{kind: queryKinds[i%len(queryKinds)], at: at}
	}
	close(queue)
	workers.Wait()
	return res
}

// query performs one GET and checks the status code and the payload's shape.
func query(client *http.Client, base, kind string, d int) error {
	resp, err := client.Get(base + kind)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var v struct {
		Heard      *int        `json:"heard"`
		ErrorBound *float64    `json:"error_bound"`
		Rows       int         `json:"rows"`
		Cols       int         `json:"cols"`
		Data       [][]float64 `json:"data"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return err
	}
	switch kind {
	case "/status":
		if v.Heard == nil || *v.Heard < 1 || *v.Heard > svcServers {
			return fmt.Errorf("bad heard count in %s", body)
		}
	case "/coverr":
		if v.ErrorBound == nil || !(*v.ErrorBound >= 0) {
			return fmt.Errorf("bad error_bound in %s", body)
		}
	case "/sketch":
		if v.Cols != d || v.Rows < 1 || len(v.Data) != v.Rows || len(v.Data[0]) != d || v.ErrorBound == nil {
			return fmt.Errorf("/sketch is %d×%d with %d data rows, want ≥1×%d", v.Rows, v.Cols, len(v.Data), d)
		}
	default: // /topk
		if v.Rows != d || v.Cols != svcTopK || len(v.Data) != d || len(v.Data[0]) != svcTopK {
			return fmt.Errorf("/topk is %d×%d, want %d×%d", v.Rows, v.Cols, d, svcTopK)
		}
	}
	return nil
}
