package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/comm"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/pca"
	"repro/internal/workload"
)

// The probes call a layer's public functions on the workload's own data and
// shapes, outside the protocol run, for the layers whose calls happen inside
// the program where the benchmark cannot put a span.

// medianMs runs fn reps times and returns the median call time in ms.
func medianMs(reps int, fn func() error) (float64, error) {
	ms := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ms), nil
}

// probeLinalg times ComputeSVD and Gram on buf, a matrix of the workload's
// FD buffer shape (2ℓ×d) filled with the workload's rows.
func probeLinalg(rep *report, buf *matrix.Dense) error {
	svd, err := medianMs(15, func() error {
		_, err := linalg.ComputeSVD(buf)
		return err
	})
	if err != nil {
		return err
	}
	gram, _ := medianMs(51, func() error {
		buf.Gram()
		return nil
	})
	rep.set("linalg.svd_ms", svd)
	rep.set("matrix.gram_ms", gram)
	return nil
}

// probePCA times SketchPCs on the workload's final sketch.
func probePCA(rep *report, sketch *matrix.Dense, k int) error {
	ms, err := medianMs(15, func() error {
		_, err := pca.SketchPCs(sketch, k)
		return err
	})
	rep.set("pca.topk_ms", ms)
	return err
}

// probeCodec replays the run's real messages through Decode and Encode.
// comm.msgs and comm.bits are per job (metered bits, as the transport
// charges them); the times are medians per message.
func probeCodec(rep *report, frames [][]byte, jobs float64) error {
	if len(frames) == 0 {
		return fmt.Errorf("codec probe: the run sent no messages")
	}
	const reps = 5
	var enc, dec []float64
	var bits int64
	var out bytes.Buffer
	for _, f := range frames {
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			msg, err := comm.Decode(bytes.NewReader(f))
			dec = append(dec, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil {
				return fmt.Errorf("codec probe: %w", err)
			}
			out.Reset()
			t0 = time.Now()
			err = msg.Encode(&out)
			enc = append(enc, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil {
				return fmt.Errorf("codec probe: %w", err)
			}
			if r == 0 {
				bits += msg.Bits()
			}
			msg.Release()
		}
	}
	rep.set("comm.msgs", float64(len(frames))/jobs)
	rep.set("comm.bits", float64(bits)/jobs)
	rep.set("comm.encode_us", median(enc))
	rep.set("comm.decode_us", median(dec))
	return nil
}

// probeAllocPerRow reads one full pass of a fresh source (through its sparse
// path when it has one, as the protocols do) and reports bytes allocated per
// row.
func probeAllocPerRow(rep *report, mk func() workload.RowSource) {
	src := mk()
	g := readGC()
	rows := 0
	if ss, ok := src.(workload.SparseRowSource); ok {
		for _, ok := ss.SparseNext(); ok; _, ok = ss.SparseNext() {
			rows++
		}
	} else {
		for _, ok := src.Next(); ok; _, ok = src.Next() {
			rows++
		}
	}
	_, _, alloc := g.since()
	rep.set("workload.alloc_bytes_per_row", alloc/float64(max(rows, 1)))
}

// serverSpread sets distributed.server_s_max and distributed.server_skew
// from the spans named role: per run, the slowest server's time and its
// ratio to the median server's; the medians over runs are reported.
func serverSpread(rep *report, tr *tracer, role string) {
	byRun := make(map[int32][]float64)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if s.Name == role {
			byRun[s.Run] = append(byRun[s.Run], float64(s.End-s.Start)/1e9)
		}
	}
	tr.mu.Unlock()
	var maxes, skews []float64
	for _, d := range byRun {
		mx := 0.0
		for _, x := range d {
			mx = max(mx, x)
		}
		maxes = append(maxes, mx)
		if m := median(d); m > 0 {
			skews = append(skews, mx/m)
		}
	}
	rep.set("distributed.server_s_max", median(maxes))
	rep.set("distributed.server_skew", median(skews))
}

// zeroUnexercised sets every per-layer metric outside the given layer
// prefixes to 0: the workload does not drive that layer. Metrics inside
// them must have been measured, or emit reports them missing.
func zeroUnexercised(rep *report, layers ...string) {
	for _, m := range perLayer {
		covered := false
		for _, l := range layers {
			if strings.HasPrefix(m.name, l) {
				covered = true
				break
			}
		}
		if !covered {
			rep.set(m.name, 0)
		}
	}
}
