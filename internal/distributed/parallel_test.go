package distributed

import (
	"context"
	"testing"

	"repro/internal/parallel"
)

// Parallelism is a local-compute knob only: rerunning a protocol at a
// different pool width must move zero communication words, and the
// deterministic protocols must produce the identical sketch.
func TestParallelismDoesNotChangeWords(t *testing.T) {
	defer parallel.SetWorkers(0)
	_, parts := split(t, 3, 512, 24, 4)
	ctx := context.Background()

	runners := []struct {
		name  string
		proto Protocol
	}{
		{"fd-merge", FDMerge{Eps: 0.2, K: 2}},
		{"svs", SVS{Alpha: 0.2, Delta: 0.1, Sampling: SampleQuadratic}},
		{"row-sampling", RowSampling{Eps: 0.2}},
		{"adaptive", Adaptive{AdaptiveParams: AdaptiveParams{Eps: 0.2, K: 2}}},
	}
	for _, r := range runners {
		parallel.SetWorkers(1)
		serial, err := Run(ctx, r.proto, parts, WithSeed(7))
		if err != nil {
			t.Fatalf("%s at width 1: %v", r.name, err)
		}
		parallel.SetWorkers(4)
		wide, err := Run(ctx, r.proto, parts, WithSeed(7))
		if err != nil {
			t.Fatalf("%s at width 4: %v", r.name, err)
		}
		if serial.Words != wide.Words {
			t.Errorf("%s: words moved with pool width: %v (w=1) vs %v (w=4)",
				r.name, serial.Words, wide.Words)
		}
		if serial.Sketch != nil && wide.Sketch != nil {
			if serial.Sketch.Rows() != wide.Sketch.Rows() || serial.Sketch.Cols() != wide.Sketch.Cols() {
				t.Errorf("%s: sketch shape moved with pool width", r.name)
			}
		}
	}
}
