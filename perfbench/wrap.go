package main

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/distributed"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// timedSource is the benchmark's timing RowSource wrapper: every row read
// is folded into an aggregate span (one record per pass, closed at end of
// data or Reset) — "workload.read" for Next, "workload.read.sparse" for
// SparseNext, so a trace shows which path the consumer took.
type timedSource struct {
	src           workload.RowSource
	dense, sparse *aggSpan
}

func (s *timedSource) Dims() (int, int) { return s.src.Dims() }

func (s *timedSource) Next() ([]float64, bool) {
	t0 := time.Now()
	row, ok := s.src.Next()
	s.fold(s.dense, t0, ok)
	return row, ok
}

// fold adds a delivered row's read to span, or closes the spans at end of
// data.
func (s *timedSource) fold(span *aggSpan, t0 time.Time, ok bool) {
	if ok {
		span.add(t0, time.Since(t0))
		return
	}
	s.dense.close()
	s.sparse.close()
}

func (s *timedSource) Reset() error {
	s.dense.close()
	s.sparse.close()
	return s.src.Reset()
}

func (s *timedSource) Err() error { return s.src.Err() }

// timedSparseSource is timedSource over a SparseRowSource. It must keep the
// sparse method visible: protocols pick their nnz-proportional path by a
// type assertion, and a wrapper that hid SparseNext would silently send the
// traced run down the dense path.
type timedSparseSource struct {
	timedSource
	ss workload.SparseRowSource
}

func (s *timedSparseSource) SparseNext() (*matrix.SparseVector, bool) {
	t0 := time.Now()
	v, ok := s.ss.SparseNext()
	s.fold(s.sparse, t0, ok)
	return v, ok
}

// timeSource wraps src for the tracer, under the given parent span. With a
// nil tracer it returns src unchanged.
func timeSource(tr *tracer, src workload.RowSource, parent int32) workload.RowSource {
	if tr == nil {
		return src
	}
	ts := timedSource{src: src, dense: tr.agg("workload.read", parent), sparse: tr.agg("workload.read.sparse", parent)}
	if ss, ok := src.(workload.SparseRowSource); ok {
		return &timedSparseSource{timedSource: ts, ss: ss}
	}
	return &ts
}

// frames collects the wire encoding of every message a run sends, for the
// comm replay (see probeCodec).
type frames struct {
	mu   sync.Mutex
	msgs [][]byte
}

func (f *frames) add(msg *comm.Message) {
	var buf bytes.Buffer
	if err := msg.Encode(&buf); err != nil {
		return // the run itself reports a message it could not encode
	}
	f.mu.Lock()
	f.msgs = append(f.msgs, buf.Bytes())
	f.mu.Unlock()
}

func (f *frames) all() [][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][]byte(nil), f.msgs...)
}

// timedNode is the benchmark's timing Node wrapper, used where the
// benchmark builds the network itself: Send and Recv each get a span, and
// every sent message is copied into frames after the send span ends.
type timedNode struct {
	distributed.Node
	tr     *tracer
	parent int32
	sent   *frames
}

func (n *timedNode) Send(ctx context.Context, to int, msg *comm.Message) error {
	t0 := time.Now()
	err := n.Node.Send(ctx, to, msg)
	n.tr.record("distributed.send", n.parent, t0, time.Now(), 0, 0)
	if err == nil && n.sent != nil {
		n.sent.add(msg)
	}
	return err
}

func (n *timedNode) Recv(ctx context.Context) (*comm.Message, error) {
	t0 := time.Now()
	msg, err := n.Node.Recv(ctx)
	n.tr.record("distributed.recv_wait", n.parent, t0, time.Now(), 0, 0)
	return msg, err
}

// timeNode wraps node for the tracer; with a nil tracer it returns node.
func timeNode(tr *tracer, node distributed.Node, parent int32, sent *frames) distributed.Node {
	if tr == nil {
		return node
	}
	return &timedNode{Node: node, tr: tr, parent: parent, sent: sent}
}

// loopSource streams the rows of an in-memory matrix round and round until
// stop is set, then reports end of data — a pre-generated stream standing in
// for an unbounded one whose length the benchmark's clock decides.
type loopSource struct {
	m        *matrix.Dense
	at       int
	stop     *atomic.Bool
	consumed atomic.Int64
}

func (s *loopSource) Dims() (int, int) { return s.m.Dims() }

func (s *loopSource) Next() ([]float64, bool) {
	if s.stop.Load() {
		return nil, false
	}
	row := append([]float64(nil), s.m.Row(s.at)...)
	if s.at++; s.at == s.m.Rows() {
		s.at = 0
	}
	s.consumed.Add(1)
	return row, true
}

func (s *loopSource) Reset() error { s.at = 0; return nil }

func (s *loopSource) Err() error { return nil }
