package distributed

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// CoordinatorID is the conventional endpoint ID of the coordinator
// (re-exported from the comm package for protocol code and the facade).
const CoordinatorID = comm.CoordinatorID

// Protocol is one distributed sketching protocol, split into its two party
// roles. A Protocol value is a plain config struct (FDMerge, SVS, Adaptive,
// …), so the same value drives an in-process run (Run), a TCP server
// process (Server against a TCPServer node), and a TCP coordinator process
// (Coordinator against a TCPCoordinator node).
//
// Implementations read cluster shape and cross-cutting options from their
// Env field; the Run driver fills it in automatically, direct TCP callers
// set it explicitly (Servers and, on the coordinator, Dim).
type Protocol interface {
	// Name identifies the protocol (stable, flag-friendly).
	Name() string
	// Estimand declares what the protocol estimates — AᵀA of one matrix
	// (EstimandCovariance) or AᵀB of an aligned pair (EstimandProduct).
	// The Run driver validates the per-server inputs against it, so a
	// workload/protocol mismatch fails loudly before any goroutine spawns.
	Estimand() Estimand
	// Server runs the server role over node, streaming the local workload
	// input — one row shard for covariance protocols (unwrap it with
	// in.Covariance), an aligned (A, B) shard pair for product protocols
	// (in.Product). Streaming protocols (FD merge, streaming SVS,
	// adaptive, low-rank exact, full transfer, coordinated product) read
	// their sources in one or two bounded-memory passes; batch protocols
	// materialize them (documented O(n_i·d) memory). Wrap an in-memory
	// partition with workload.NewDenseSource — Run does it for you.
	Server(ctx context.Context, node Node, in Input) error
	// Coordinator runs the coordinator role over node and returns the
	// protocol's output; communication totals are filled in by the driver.
	Coordinator(ctx context.Context, node Node) (*Result, error)
}

// Env is the runtime environment a protocol executes in: the cluster shape
// plus the cross-cutting Config every protocol shares. The Run driver
// derives it from the partition and its options; over TCP the caller sets
// it on the protocol value directly.
type Env struct {
	// Servers is the number of servers s.
	Servers int
	// Dim is the column dimension d of A (needed by some coordinators).
	Dim int
	// DimB is the column dimension of B for product workloads (0 for
	// covariance protocols, which have no second matrix).
	DimB int
	// Config carries quantization, seeding, and straggler options.
	Config Config
	// Topology is the run's aggregation plan; nil means the star (the
	// compatible default for direct TCP callers that build Env by hand).
	Topology *Plan
}

// plan resolves the run's aggregation plan, materializing the degenerate
// star when none was installed.
func (e Env) plan() *Plan {
	if e.Topology != nil {
		return e.Topology
	}
	p, err := Star().Plan(e.Servers)
	if err != nil {
		panic(fmt.Sprintf("distributed: Env with %d servers: %v", e.Servers, err))
	}
	return p
}

// parent returns where node id forwards its summary: its plan parent, or
// the coordinator under the star.
func (e Env) parent(id int) int {
	if e.Topology == nil {
		return comm.CoordinatorID
	}
	return e.Topology.Parent(id)
}

// envSetter lets the Run driver install the Env it derived without widening
// the public Protocol interface; every built-in protocol implements it.
type envSetter interface {
	withEnv(Env) Protocol
}

// roundCounter lets a protocol report its synchronous round count to the
// driver's meter; protocols without it default to one round.
type roundCounter interface {
	rounds() int
}

// validator lets a protocol reject invalid parameters (by panicking) in the
// caller's goroutine before any party goroutine is spawned — a panic inside
// a spawned server would crash the process instead of reaching the caller.
type validator interface {
	validate()
}

// SamplingFn selects the SVS sampling function g — the typed replacement
// for the old positional `useLinear bool` argument. It is shared with the
// core package (the alias keeps one enum across every layer).
type SamplingFn = core.SamplingFn

const (
	// SampleQuadratic is the Theorem 6 quadratic sampling function
	// (the default; O(√s·d·√log(d/δ)/α) expected words).
	SampleQuadratic = core.SampleQuadratic
	// SampleLinear is the Theorem 5 linear sampling function.
	SampleLinear = core.SampleLinear
)

// ParseSamplingFn converts a flag string to a SamplingFn.
func ParseSamplingFn(s string) (SamplingFn, error) { return core.ParseSamplingFn(s) }

// Config holds the cross-cutting options every protocol shares. The Run
// driver assembles it from RunOptions; direct TCP callers set it as
// Env.Config.
type Config struct {
	// QuantStep turns on §3.3 quantization when positive: every sketch
	// matrix is rounded to this additive precision before sending, so costs
	// are counted at O(log(nd/ε)) bits per entry instead of full 64-bit
	// words (use comm.StepFor). Zero sends full-precision payloads; a
	// negative, NaN or infinite step is rejected.
	QuantStep float64
	// WirePrecision selects the wire width of matrix payloads
	// (comm.Float64 by default). comm.Float32 halves every sketch's word
	// count: senders round entries to float32-representable values before
	// transmission, so in-memory and socket transports carry identical
	// payloads and meter identically, at an additive error bounded by
	// comm.Float32RoundTripError (charge it against the certificate like a
	// quantized leg's step). Mutually exclusive with quantization, whose
	// step accounting already covers the payload.
	WirePrecision comm.Precision
	// Seed seeds each server's private randomness (server i uses Seed+i).
	Seed int64
	// Stragglers bounds how long the coordinator waits for each server and
	// whether quorum-tolerant protocols may proceed without stragglers.
	Stragglers StragglerPolicy
	// Shrink selects the FD shrink strategy for the fd-merge protocol: the
	// rule every leaf's streaming sketch and every merge node applies (nil
	// = fd.FastFD; see fd.ShrinkStrategy). Only mergeable strategies are
	// legal here — fd.Vanilla, fd.FastFD, fd.AlphaFD(α) — and a variant
	// without a mergeability proof (fd.ISVD, fd.Compensative) fails the
	// run loudly at the first merge path rather than silently degrading
	// the certificate. Protocols that use FD internally as a fixed
	// analysis step (adaptive, streaming SVS) deliberately ignore this
	// knob: their guarantees are proven against the default FD rule.
	// Strategy choice never changes metered communication — every summary
	// is still at most ℓ rows.
	Shrink fd.ShrinkStrategy
	// Obs is the observability sink for this run's protocol events (nil
	// falls back to the process-wide obs.Default(), which is itself nil —
	// the no-op observer — unless installed). Observation never changes
	// metered communication: word counts and transcripts are identical
	// with and without it.
	Obs *obs.Observer
}

// observer resolves the config's observability sink: the explicit Obs, or
// the process-wide default. The result may be nil — every Observer method
// is a no-op on a nil receiver.
func (c Config) observer() *obs.Observer {
	if c.Obs != nil {
		return c.Obs
	}
	return obs.Default()
}

// checkWire rejects a wire policy no sender can apply: a quantization step
// that is negative, NaN or infinite, or quantization combined with float32
// payloads.
func (c Config) checkWire() error {
	if c.QuantStep < 0 || math.IsNaN(c.QuantStep) || math.IsInf(c.QuantStep, 0) {
		return fmt.Errorf("distributed: invalid quantization step %v (want a positive finite step, or 0 for none)", c.QuantStep)
	}
	if c.QuantStep > 0 && c.WirePrecision == comm.Float32 {
		return fmt.Errorf("distributed: quantization and float32 wire precision are mutually exclusive (the quantizer's step accounting already covers the payload)")
	}
	return nil
}

// putMatrix attaches m to msg under the config's wire policy — the one
// place the plain / float32 / quantized decision is made: quantized when
// QuantStep > 0, rounded to float32 under comm.Float32, as is otherwise.
func (c Config) putMatrix(msg *comm.Message, m *matrix.Dense) error {
	if err := c.checkWire(); err != nil {
		return err
	}
	switch {
	case c.QuantStep > 0:
		q, err := comm.NewQuantizer(c.QuantStep).Quantize(m)
		if err != nil {
			return fmt.Errorf("distributed: quantize %s: %w", msg.Kind, err)
		}
		msg.Quantized = q
	case c.WirePrecision == comm.Float32:
		// Round before handing the payload to the transport: the in-memory
		// network shares the message by pointer without encoding, so
		// rounding here keeps it value- and word-identical with the socket
		// wire format.
		msg.Matrix, msg.MatrixPrecision = comm.RoundFloat32(m), comm.Float32
	default:
		msg.Matrix = m
	}
	return nil
}

// sendMatrix transmits m under the config's wire policy.
func (c Config) sendMatrix(ctx context.Context, node Node, to int, kind string, m *matrix.Dense) error {
	msg := &comm.Message{Kind: kind}
	if err := c.putMatrix(msg, m); err != nil {
		return err
	}
	return node.Send(ctx, to, msg)
}

// recvMatrix extracts the matrix payload regardless of quantization.
func recvMatrix(msg *comm.Message) (*matrix.Dense, error) {
	switch {
	case msg.Matrix != nil:
		return msg.Matrix, nil
	case msg.Quantized != nil:
		return msg.Quantized.Dequantize(), nil
	default:
		return nil, fmt.Errorf("distributed: message %q carries no matrix", msg.Kind)
	}
}

func (c Config) rng(serverID int) *rand.Rand {
	return rand.New(rand.NewSource(c.Seed + int64(serverID) + 1))
}

// minDim is the number of singular triples of m — the SVS candidate count.
func minDim(m *matrix.Dense) int {
	r, c := m.Dims()
	if r < c {
		return r
	}
	return c
}
