package distributed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/workload"
)

// tcpRun drives proto's two roles over real loopback TCP sockets — a
// coordinator hub and one dialing server per input — with env installed on
// every party, the way cmd/distsketch deploys a protocol. Every endpoint
// records on the one returned meter, so its totals are directly comparable
// with an in-memory run's.
func tcpRun(t *testing.T, proto Protocol, inputs []Input, env Env) (*Result, *comm.Meter) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	proto = proto.(envSetter).withEnv(env)
	s := len(inputs)
	meter := comm.NewMeter()
	coord, err := NewTCPCoordinator("127.0.0.1:0", s, meter)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var wg sync.WaitGroup
	serverErrs := make(chan error, s)
	for i := range inputs {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			srv, err := DialTCPServerContext(ctx, coord.Addr(), id, meter, TCPOptions{})
			if err != nil {
				serverErrs <- err
				return
			}
			defer srv.Close()
			if err := proto.Server(ctx, srv.Node(), inputs[id]); err != nil {
				serverErrs <- fmt.Errorf("server %d: %w", id, err)
			}
		}(i)
	}
	if err := coord.Accept(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := proto.Coordinator(ctx, coord.Node())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(serverErrs)
	for err := range serverErrs {
		t.Fatal(err)
	}
	return res, meter
}

// TestTCPMatchesMem runs every covariance protocol struct through its two
// roles over real TCP and checks the sockets carry exactly the in-memory
// protocol: a bit-identical Sketch and Gram, and the same words, bits and
// messages on every link. Each row also keeps its protocol's guarantee
// check on the TCP result.
func TestTCPMatchesMem(t *testing.T) {
	const seed = 7
	fdData := func() *matrix.Dense {
		return workload.LowRankPlusNoise(rand.New(rand.NewSource(1)), 200, 12, 3, 20, 0.7, 0.4)
	}
	svsData := func() *matrix.Dense {
		return workload.PowerLawSpectrum(rand.New(rand.NewSource(2)), 240, 10, 0.8, 10)
	}
	rankData := func() *matrix.Dense {
		return workload.ExactRank(rand.New(rand.NewSource(12)), 120, 14, 6, 4)
	}
	covBound := func(alpha float64) func(*testing.T, *matrix.Dense, *Result) {
		return func(t *testing.T, a *matrix.Dense, res *Result) {
			ce, err := core.CovErr(a, res.Sketch)
			if err != nil {
				t.Fatal(err)
			}
			if ce > 4*alpha*a.Frob2() {
				t.Fatalf("TCP coverr %v > %v", ce, 4*alpha*a.Frob2())
			}
		}
	}
	epsK := func(eps float64, k int) func(*testing.T, *matrix.Dense, *Result) {
		return func(t *testing.T, a *matrix.Dense, res *Result) {
			ok, ce, bound, err := core.IsEpsKSketch(a, res.Sketch, eps, k)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("TCP sketch error %v > %v", ce, bound)
			}
		}
	}
	exactGram := func(t *testing.T, a *matrix.Dense, res *Result) {
		if !res.Gram.EqualApprox(a.Gram(), 1e-5*(1+a.Gram().MaxAbs())) {
			t.Fatal("TCP Gram differs from AᵀA")
		}
	}
	cases := []struct {
		proto Protocol
		data  func() *matrix.Dense
		s     int
		check func(*testing.T, *matrix.Dense, *Result)
	}{
		{FDMerge{Eps: 0.25, K: 3}, fdData, 4, epsK(0.25, 3)},
		{SVS{Alpha: 0.25, Delta: 0.1, Sampling: SampleQuadratic}, svsData, 3, covBound(0.25)},
		{SVS{Alpha: 0.25, Delta: 0.1, Streaming: true}, svsData, 3, covBound(0.25)},
		{RowSampling{Eps: 0.3}, svsData, 3, covBound(0.3)},
		{Adaptive{AdaptiveParams: AdaptiveParams{Eps: 0.25, K: 3}}, fdData, 4, epsK(3*0.25, 3)},
		{LowRankExact{KBound: 3}, rankData, 5, exactGram},
		{FullTransfer{}, fdData, 4, exactGram},
	}
	for _, tc := range cases {
		t.Run(tc.proto.Name(), func(t *testing.T) {
			a := tc.data()
			parts := workload.Split(a, tc.s, workload.Contiguous, nil)
			memMeter := comm.NewMeter()
			mem, err := Run(context.Background(), tc.proto, parts, WithSeed(seed), WithMeter(memMeter))
			if err != nil {
				t.Fatal(err)
			}
			_, d := a.Dims()
			res, meter := tcpRun(t, tc.proto, CovarianceInputs(workload.DenseSources(parts)),
				Env{Servers: tc.s, Dim: d, Config: Config{Seed: seed}})
			if len(res.Missing) != 0 {
				t.Fatalf("unexpected stragglers: %v", res.Missing)
			}
			if (mem.Sketch == nil) != (res.Sketch == nil) || mem.Sketch != nil && !res.Sketch.Equal(mem.Sketch) {
				t.Fatal("TCP sketch differs from the in-memory run")
			}
			if (mem.Gram == nil) != (res.Gram == nil) || mem.Gram != nil && !res.Gram.Equal(mem.Gram) {
				t.Fatal("TCP Gram differs from the in-memory run")
			}
			uplink := 0.0
			for i := 0; i < tc.s; i++ {
				uplink += meter.LinkWords(i, comm.CoordinatorID)
			}
			if uplink <= 0 {
				t.Fatal("server meters recorded nothing")
			}
			if meter.Words() != mem.Words || meter.Bits() != mem.Bits || meter.Messages() != mem.Messages {
				t.Fatalf("TCP metered %v words / %d bits / %d msgs, in-memory %v / %d / %d",
					meter.Words(), meter.Bits(), meter.Messages(), mem.Words, mem.Bits, mem.Messages)
			}
			for i := 0; i < tc.s; i++ {
				for _, l := range [][2]int{{i, comm.CoordinatorID}, {comm.CoordinatorID, i}} {
					if got, want := meter.LinkWords(l[0], l[1]), memMeter.LinkWords(l[0], l[1]); got != want {
						t.Errorf("link %d→%d: TCP %v words, in-memory %v", l[0], l[1], got, want)
					}
				}
			}
			tc.check(t, a, res)
		})
	}
}

// A quantization step no quantizer accepts must surface as an error from
// the roles — never a panic in a server goroutine — on both transports.
func TestInvalidQuantStepIsAnError(t *testing.T) {
	_, parts := split(t, 30, 80, 8, 2)
	for _, step := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := Run(context.Background(), FDMerge{Eps: 0.3, K: 2}, parts, WithQuantization(step)); err == nil ||
			!strings.Contains(err.Error(), "WithQuantization") {
			t.Errorf("WithQuantization(%v): %v", step, err)
		}
	}
	for _, step := range []float64{-1, math.NaN(), math.Inf(1)} {
		proto := FDMerge{Eps: 0.3, K: 2, Env: Env{Servers: 2, Dim: 8, Config: Config{QuantStep: step}}}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		coord, err := NewTCPCoordinator("127.0.0.1:0", 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		serverErrs := make(chan error, 2)
		for id := 0; id < 2; id++ {
			go func(id int) {
				srv, err := DialTCPServerContext(ctx, coord.Addr(), id, nil, TCPOptions{})
				if err != nil {
					serverErrs <- err
					return
				}
				defer srv.Close()
				serverErrs <- proto.Server(ctx, srv.Node(), CovarianceInput(workload.NewDenseSource(parts[id])))
			}(id)
		}
		if err := coord.Accept(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := proto.Coordinator(ctx, coord.Node()); err == nil {
			t.Errorf("QuantStep %v: coordinator returned no error", step)
		}
		for id := 0; id < 2; id++ {
			if err := <-serverErrs; err == nil || !strings.Contains(err.Error(), "quantization step") {
				t.Errorf("QuantStep %v: server error %v", step, err)
			}
		}
		coord.Close()
		cancel()
	}
}

// TestTCPProtocolValueDrivesBothRoles runs the same Protocol struct value
// through the two direct-TCP roles — the deployment path cmd/distsketch
// uses — and checks the context-aware dialer against a live coordinator.
func TestTCPProtocolValueDrivesBothRoles(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rng := rand.New(rand.NewSource(4))
	a := workload.LowRankPlusNoise(rng, 160, 10, 2, 20, 0.7, 0.4)
	s := 3
	parts := workload.Split(a, s, workload.Contiguous, nil)
	proto := Adaptive{
		AdaptiveParams: AdaptiveParams{Eps: 0.25, K: 2},
		Env:            Env{Servers: s, Dim: 10},
	}

	coord, err := NewTCPCoordinator("127.0.0.1:0", s, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var wg sync.WaitGroup
	serverErrs := make(chan error, s)
	for i := 0; i < s; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			srv, err := DialTCPServerContext(ctx, coord.Addr(), id, nil, TCPOptions{})
			if err != nil {
				serverErrs <- err
				return
			}
			defer srv.Close()
			sp := proto
			sp.Env.Config.Seed = int64(id)
			if err := sp.Server(ctx, srv.Node(), CovarianceInput(workload.NewDenseSource(parts[id]))); err != nil {
				serverErrs <- err
			}
		}(i)
	}

	if err := coord.Accept(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := proto.Coordinator(ctx, coord.Node())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(serverErrs)
	for err := range serverErrs {
		t.Fatal(err)
	}
	ok, ce, bound, err := core.IsEpsKSketch(a, res.Sketch, 3*0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("TCP adaptive sketch error %v > %v", ce, bound)
	}
}

// TestTCPDialRetriesUntilListen starts the dialer before the coordinator
// exists: the context-aware dialer must retry with backoff and connect once
// the listener appears, instead of failing on the first refused connection.
func TestTCPDialRetriesUntilListen(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Reserve an address, then free it so the dialer races a dead port.
	probe, err := NewTCPCoordinator("127.0.0.1:0", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr()
	probe.Close()

	dialErr := make(chan error, 1)
	connected := make(chan *TCPServer, 1)
	go func() {
		srv, err := DialTCPServerContext(ctx, addr, 0, nil, TCPOptions{})
		if err != nil {
			dialErr <- err
			return
		}
		connected <- srv
	}()

	// Give the dialer time to hit the refused port at least once.
	time.Sleep(200 * time.Millisecond)
	coord, err := NewTCPCoordinator(addr, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Accept(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-dialErr:
		t.Fatalf("dialer gave up: %v", err)
	case srv := <-connected:
		srv.Close()
	case <-ctx.Done():
		t.Fatal("dialer never connected")
	}
}

// TestTCPDialContextCancelled checks the retrying dialer aborts promptly
// with the context error when nothing ever listens.
func TestTCPDialContextCancelled(t *testing.T) {
	// Reserve-and-release a port so nothing is listening there.
	probe, err := NewTCPCoordinator("127.0.0.1:0", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr()
	probe.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = DialTCPServerContext(ctx, addr, 0, nil, TCPOptions{})
	if err == nil {
		t.Fatal("expected dial failure with nothing listening")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled dial took %v", elapsed)
	}
}

func TestTCPServerRestrictions(t *testing.T) {
	ctx := context.Background()
	coord, err := NewTCPCoordinator("127.0.0.1:0", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	done := make(chan error, 1)
	go func() {
		srv, err := DialTCPServer(coord.Addr(), 0, nil)
		if err != nil {
			done <- err
			return
		}
		defer srv.Close()
		// Server-to-server sends are rejected in the star topology.
		if err := srv.Send(ctx, 1, &comm.Message{Kind: "x"}); err == nil {
			done <- errors.New("expected star-topology error")
			return
		}
		done <- srv.Send(ctx, comm.CoordinatorID, &comm.Message{Kind: "ping", Matrix: matrix.New(1, 1)})
	}()
	if err := coord.Accept(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	msg, err := coord.Node().Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != "ping" || msg.From != 0 {
		t.Fatalf("message %+v", msg)
	}
}

func TestTCPBadHello(t *testing.T) {
	coord, err := NewTCPCoordinator("127.0.0.1:0", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	go func() {
		// Out-of-range server ID must be rejected by Accept.
		srv, err := DialTCPServer(coord.Addr(), 7, nil)
		if err == nil {
			srv.Close()
		}
	}()
	if err := coord.Accept(context.Background()); err == nil {
		t.Fatal("expected hello rejection")
	}
}
