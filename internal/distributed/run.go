package distributed

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/fd"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/workload"
)

// runOpts collects the cross-cutting options of a Run invocation.
type runOpts struct {
	cfg      Config
	deadline time.Duration
	faults   *FaultPlan
	mailbox  int
	meter    *comm.Meter
	topo     Topology
	// err is the first invalid option; RunWorkload returns it before any
	// party starts.
	err error
}

// RunOption configures a Run invocation.
type RunOption func(*runOpts)

// WithDeadline bounds the whole protocol run: when it expires, every
// party's pending Send/Recv unblocks and Run returns the deadline error.
func WithDeadline(d time.Duration) RunOption {
	return func(o *runOpts) { o.deadline = d }
}

// WithSeed seeds each server's private randomness (server i uses seed+i).
func WithSeed(seed int64) RunOption {
	return func(o *runOpts) { o.cfg.Seed = seed }
}

// WithQuantization turns on §3.3 quantization with the given additive step
// (use comm.StepFor). The step must be positive and finite; any other value
// fails the run before a party starts.
func WithQuantization(step float64) RunOption {
	return func(o *runOpts) {
		if (!(step > 0) || math.IsInf(step, 1)) && o.err == nil {
			o.err = fmt.Errorf("distributed: WithQuantization(%v): the step must be positive and finite", step)
		}
		o.cfg.QuantStep = step
	}
}

// WithWirePrecision sets the wire width of matrix payloads (see
// Config.WirePrecision). comm.Float32 halves every sketch's metered words
// at an additive error bounded by comm.Float32RoundTripError; it cannot be
// combined with WithQuantization.
func WithWirePrecision(p comm.Precision) RunOption {
	return func(o *runOpts) { o.cfg.WirePrecision = p }
}

// WithShrink selects the FD shrink strategy for fd-merge runs (nil keeps
// the FastFD default). Only mergeable strategies are legal — fd.Vanilla,
// fd.FastFD, fd.AlphaFD(α); fd.ISVD and fd.Compensative fail the run with
// a descriptive error (see Config.Shrink). The choice never changes
// metered communication.
func WithShrink(st fd.ShrinkStrategy) RunOption {
	return func(o *runOpts) { o.cfg.Shrink = st }
}

// WithStragglers installs the coordinator's straggler policy: a per-server
// receive timeout, and optionally a quorum for the protocols whose
// guarantee permits proceeding without the stragglers.
func WithStragglers(pol StragglerPolicy) RunOption {
	return func(o *runOpts) { o.cfg.Stragglers = pol }
}

// WithTopology selects the run's aggregation topology: Star() (the default,
// every server reports straight to the coordinator) or Tree(fanout), which
// interposes aggregator nodes that each merge their subtree's summaries and
// forward one summary upward. Trees require a protocol whose summaries
// merge at interior nodes (FDMerge); other protocols reject the option with
// a descriptive error. Straggler quorums apply per subtree
// (Plan.SubtreeQuorum), and each aggregation level adds one communication
// round.
func WithTopology(t Topology) RunOption {
	return func(o *runOpts) { o.topo = t }
}

// WithFaults runs the protocol over a FaultNetwork injecting the plan —
// the in-process way to rehearse drops, delays, duplicates, reorderings,
// and partitions. Combine with WithDeadline (or WithStragglers) so a lost
// message surfaces as a timely error rather than a hang.
func WithFaults(plan FaultPlan) RunOption {
	return func(o *runOpts) { o.faults = &plan }
}

// WithMailboxCapacity sets the per-server mailbox capacity of the run's
// MemNetwork (the coordinator's mailbox is capacity×s). See Mailbox for the
// backpressure semantics.
func WithMailboxCapacity(capacity int) RunOption {
	return func(o *runOpts) { o.mailbox = capacity }
}

// WithMeter records the run's communication on the given meter (sharing one
// meter across runs accumulates their totals).
func WithMeter(meter *comm.Meter) RunOption {
	return func(o *runOpts) { o.meter = meter }
}

// WithObserver records the run's protocol events — messages, rounds,
// broadcasts, stragglers, faults, FD shrinks, SVS sampling — on the given
// observer (see the obs package). Without this option the run falls back to
// the Config's Obs field, then to the process-wide obs.Default(). Word
// counts and protocol transcripts are identical with and without an
// observer; the observer's message totals are taken at the metering point,
// so they always equal the run's Result totals exactly.
func WithObserver(ob *obs.Observer) RunOption {
	return func(o *runOpts) { o.cfg.Obs = ob }
}

// Run executes proto in-process over len(parts) simulated servers (server i
// holding parts[i]) plus a coordinator, and returns the coordinator's
// result with exact communication accounting. It is the dense convenience
// form of RunWorkload: each partition becomes one covariance Input over a
// workload.DenseSource.
func Run(ctx context.Context, proto Protocol, parts []*matrix.Dense, opts ...RunOption) (*Result, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("distributed: Run(%s) with no partitions", proto.Name())
	}
	return RunWorkload(ctx, proto, CovarianceInputs(workload.DenseSources(parts)), opts...)
}

// RunWorkload executes proto in-process over len(inputs) simulated servers
// (server i consuming inputs[i]) plus a coordinator, and returns the
// coordinator's result with exact communication accounting. It is the one
// protocol driver, generalized over the protocol's estimand: covariance
// protocols take one-source inputs (CovarianceInputs wraps in-memory or
// file-backed sources), product protocols take aligned (A, B) shard pairs,
// and the inputs are validated against the protocol's declared Estimand
// before any goroutine spawns.
//
// RunWorkload derives the protocol's Env from the inputs and the options,
// spawns one goroutine per server, runs the coordinator on the calling
// goroutine, and guarantees that any single party failure — or cancellation
// of ctx, or an expired WithDeadline — unblocks every other party promptly.
func RunWorkload(ctx context.Context, proto Protocol, inputs []Input, opts ...RunOption) (*Result, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("distributed: Run(%s) with no inputs", proto.Name())
	}
	var o runOpts
	for _, opt := range opts {
		opt(&o)
	}
	if o.err == nil {
		o.err = o.cfg.checkWire()
	}
	if o.err != nil {
		return nil, fmt.Errorf("%s: %w", proto.Name(), o.err)
	}
	if o.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.deadline)
		defer cancel()
	}
	s := len(inputs)
	d, dB, err := checkInputs(proto, inputs)
	if err != nil {
		return nil, err
	}
	plan, err := o.topo.Plan(s)
	if err != nil {
		return nil, err
	}
	ob := o.cfg.observer()
	o.cfg.Obs = ob // resolve the fallback once so protocol code reads cfg.Obs directly
	var memOpts []MemOption
	if o.mailbox > 0 {
		memOpts = append(memOpts, Mailbox(o.mailbox))
	}
	if aggs := plan.Aggregators(); len(aggs) > 0 {
		fanin := make(map[int]int, len(aggs))
		for _, id := range aggs {
			fanin[id] = len(plan.Children(id))
		}
		memOpts = append(memOpts, ExtraEndpoints(fanin))
	}
	mem := NewMemNetwork(s, o.meter, memOpts...)
	defer mem.Close()
	if ob != nil {
		// Mirror the meter's accounting into the observer for this run (and
		// clear the hook on exit so a meter shared via WithMeter does not
		// keep feeding a stale observer in later runs).
		mem.Meter().SetRecorder(ob)
		defer mem.Meter().SetRecorder(nil)
	}
	var net Network = mem
	if o.faults != nil && !o.faults.zero() {
		fn := NewFaultNetwork(mem, *o.faults)
		fn.SetObserver(ob)
		net = fn
	}
	if es, ok := proto.(envSetter); ok {
		proto = es.withEnv(Env{Servers: s, Dim: d, DimB: dB, Config: o.cfg, Topology: plan})
	}
	if v, ok := proto.(validator); ok {
		v.validate()
	}
	serverFns := make([]func() error, s, s+len(plan.Aggregators()))
	for i := range inputs {
		i := i
		serverFns[i] = func() error {
			return proto.Server(ctx, net.Node(i), inputs[i])
		}
	}
	if !plan.IsStar() {
		// The type assertion runs after withEnv: withEnv returns a fresh
		// protocol value and the aggregator must read the installed Env.
		ta, ok := proto.(treeAggregator)
		if !ok {
			return nil, fmt.Errorf("distributed: protocol %s does not support tree aggregation (it is star-only); drop WithTopology or use fd-merge", proto.Name())
		}
		for _, id := range plan.Aggregators() {
			id := id
			serverFns = append(serverFns, func() error {
				return ta.Aggregate(ctx, net.Node(id), plan)
			})
		}
	}
	res := &Result{}
	ob.RunStart(proto.Name(), s)
	err = runParties(ctx, net, serverFns, func() error {
		nRounds := 1
		if rc, ok := proto.(roundCounter); ok {
			nRounds = rc.rounds()
		}
		// Each aggregation level below the root is one more lockstep wave.
		nRounds += plan.Depth() - 1
		for r := 0; r < nRounds; r++ {
			net.Meter().AddRound()
		}
		out, err := proto.Coordinator(ctx, net.Coordinator())
		if err != nil {
			return err
		}
		*res = *out
		res.Estimand = proto.Estimand()
		return nil
	})
	if err != nil {
		ob.RunEnd(proto.Name(), net.Meter().Words(), err)
		return nil, fmt.Errorf("%s: %w", proto.Name(), err)
	}
	out := finish(res, net.Meter())
	ob.RunEnd(proto.Name(), out.Words, nil)
	return out, nil
}

func finish(res *Result, meter *comm.Meter) *Result {
	res.Words = meter.Words()
	res.Bits = meter.Bits()
	res.Rounds = meter.Rounds()
	res.Messages = meter.Messages()
	return res
}
