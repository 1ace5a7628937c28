package bench

import "testing"

// TestProductFrontier pins the C1 acceptance claim at test scale: the
// frontier runs both estimators at every density, every coord-product point
// honors its certificate, and coordinated sampling beats the SVS baseline
// (same-or-better error, strictly fewer words) at at least one density.
func TestProductFrontier(t *testing.T) {
	cfg := smallConfig()
	cfg.N, cfg.D = 2048, 32
	rows, err := ProductFrontier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 densities × (4 coord points + 3 svs points).
	if len(rows) != 21 {
		t.Fatalf("rows = %d, want 21", len(rows))
	}
	for _, r := range rows {
		if r.CovErr < 0 || r.Words <= 0 {
			t.Fatalf("%s (%s): degenerate row %+v", r.Algorithm, r.Note, r)
		}
		if r.Algorithm[:3] != "svs" && !r.OK {
			t.Errorf("%s (%s): certificate violated: err %v > budget %v", r.Algorithm, r.Note, r.CovErr, r.Budget)
		}
	}
	density, err := CheckProductHeadline(rows)
	if err != nil {
		t.Fatal(err)
	}
	if density != 0.01 {
		t.Logf("headline holds at density=%g (sparsest is the expected regime)", density)
	}
}

// TestProductFrontierNoDuplicatePoints: at n ≤ 4096 several sweep points cap
// to n−1; each size must still run (and print) once per density.
func TestProductFrontierNoDuplicatePoints(t *testing.T) {
	cfg := smallConfig()
	cfg.N, cfg.D = 1024, 32
	rows, err := ProductFrontier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		key := r.Algorithm + "|" + r.Note
		if seen[key] {
			t.Errorf("duplicate frontier point %s (%s)", r.Algorithm, r.Note)
		}
		seen[key] = true
	}
}
