package dynatree

import (
	"testing"

	"alic/internal/rng"
)

// trainForest builds a forest on a deterministic 2D surface.
func trainForest(t testing.TB, cfg Config, n int) (*Forest, [][]float64) {
	t.Helper()
	f, err := New(cfg, 2, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	xs := make([][]float64, n)
	for i := range xs {
		x := []float64{r.Float64(), r.Float64()}
		xs[i] = x
		f.Update(x, x[0]+2*x[1]*x[1]+r.NormMS(0, 0.05))
	}
	return f, xs
}

// TestBatchMatchesSinglePoint pins the batched entry points to their
// single-point counterparts, bit for bit.
func TestBatchMatchesSinglePoint(t *testing.T) {
	for _, lm := range []LeafModel{ConstantLeaf, LinearLeaf} {
		cfg := smallConfig()
		cfg.LeafModel = lm
		f, xs := trainForest(t, cfg, 80)
		qs := xs[:40]

		means, vars := f.PredictBatch(qs)
		alms := f.ALMBatch(qs)
		fasts := f.PredictMeanFastBatch(qs)
		for i, x := range qs {
			m, v := f.Predict(x)
			if means[i] != m || vars[i] != v {
				t.Fatalf("leafmodel %d: PredictBatch[%d] = (%v, %v), Predict = (%v, %v)",
					lm, i, means[i], vars[i], m, v)
			}
			if got := f.ALM(x); alms[i] != got {
				t.Fatalf("leafmodel %d: ALMBatch[%d] = %v, ALM = %v", lm, i, alms[i], got)
			}
			if got := f.PredictMeanFast(x); fasts[i] != got {
				t.Fatalf("leafmodel %d: PredictMeanFastBatch[%d] = %v, PredictMeanFast = %v",
					lm, i, fasts[i], got)
			}
		}
	}
}
