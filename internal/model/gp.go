package model

import (
	"fmt"

	"alic/internal/gp"
	"alic/internal/stats"
)

// GPBuilder builds a Gaussian-process backend. Exact GP inference is
// O(n^3) per refit — the very cost §3.2 of the paper rejects — so the
// adapter keeps it usable inside the learning loop with two standard
// approximations: subset-of-data training (at most MaxPoints evenly
// spread over the observation history per refit) and periodic refits
// (every RefitEvery updates, so predictions between refits come from a
// slightly stale posterior).
type GPBuilder struct {
	// Config holds the kernel hyperparameters; the zero value selects
	// gp.DefaultConfig.
	Config gp.Config
	// MaxPoints caps the training subset per refit (0 = 256).
	MaxPoints int
	// RefitEvery refits after this many updates (0 = 8).
	RefitEvery int
}

// Name returns "gp".
func (GPBuilder) Name() string { return "gp" }

// New constructs the adapter; the GP itself is fitted lazily as
// observations arrive.
func (b GPBuilder) New(p Params) (Model, error) {
	cfg := b.Config
	if cfg == (gp.Config{}) {
		cfg = gp.DefaultConfig()
		// Empirical Bayes, mirroring the dynatree builder's
		// CalibratePrior: the GP centres targets itself but its default
		// unit signal variance assumes unit-scale data, so match the
		// prior to the seed observations' spread (noise kept at the
		// same 1% ratio the default encodes).
		if s := stats.Summarize(p.SeedTargets); s.Variance > 0 {
			cfg.SignalVar = s.Variance
			cfg.NoiseVar = 0.01 * s.Variance
		}
	}
	g, err := gp.New(cfg)
	if err != nil {
		return nil, err
	}
	g.SetWorkers(p.Workers)
	maxPoints := b.MaxPoints
	if maxPoints <= 0 {
		maxPoints = 256
	}
	if maxPoints < 2 {
		// The strided subset needs two anchor points (first and last).
		maxPoints = 2
	}
	refitEvery := b.RefitEvery
	if refitEvery <= 0 {
		refitEvery = 8
	}
	return &gpModel{g: g, maxPoints: maxPoints, refitEvery: refitEvery}, nil
}

// gpModel adapts internal/gp to the Model interface. Batched scoring
// runs on the shared worker pool (Params.Workers, bit-deterministic
// for every value) inside the GP's own batch entry points.
type gpModel struct {
	g          *gp.GP
	maxPoints  int
	refitEvery int

	xs      [][]float64
	ys      []float64
	pending int

	// Bound pool rows (PoolBinder) plus reusable gather scratch. The
	// indexed entry points gather rows and call the row-based scorers,
	// bit-identical by construction.
	rows       [][]float64
	gatherBufA [][]float64
	gatherBufB [][]float64
}

var _ PoolBinder = (*gpModel)(nil)

// BindPool binds the pool rows for the indexed adapters.
func (m *gpModel) BindPool(rows [][]float64) { m.rows = rows }

// gather copies the bound rows for ids into buf.
func (m *gpModel) gather(buf *[][]float64, ids []int) [][]float64 {
	out := (*buf)[:0]
	for _, id := range ids {
		out = append(out, m.rows[id])
	}
	*buf = out
	return out
}

// ALMIndexed is ALMBatch over bound pool rows.
func (m *gpModel) ALMIndexed(ids []int) []float64 {
	return m.ALMBatch(m.gather(&m.gatherBufA, ids))
}

// ALCIndexed is ALCScores over bound pool rows.
func (m *gpModel) ALCIndexed(cands, refs []int) []float64 {
	return m.ALCScores(m.gather(&m.gatherBufA, cands), m.gather(&m.gatherBufB, refs))
}

// PredictMeanFastIndexed is PredictMeanFastBatch over bound pool rows.
func (m *gpModel) PredictMeanFastIndexed(ids []int) []float64 {
	return m.PredictMeanFastBatch(m.gather(&m.gatherBufA, ids))
}

// Update records the observation and refits the GP when due. While
// the history is no larger than RefitEvery, every update refits (an
// O(n^3) with tiny n, so effectively free) — otherwise the seed
// observations would sit unabsorbed until the first periodic boundary
// and early acquisitions would be scored by a one-point posterior.
func (m *gpModel) Update(x []float64, y float64) {
	m.xs = append(m.xs, append([]float64(nil), x...))
	m.ys = append(m.ys, y)
	m.pending++
	if len(m.xs) <= m.refitEvery || m.pending >= m.refitEvery {
		m.refit()
	}
}

// refit retrains on a subset-of-data: when the history exceeds
// MaxPoints, an evenly spaced selection (always including the first and
// most recent points) keeps coverage of the whole trajectory while
// bounding the O(n^3) factorisation.
func (m *gpModel) refit() {
	n := len(m.xs)
	if n == 0 {
		return
	}
	xs, ys := m.xs, m.ys
	if n > m.maxPoints {
		xs = make([][]float64, m.maxPoints)
		ys = make([]float64, m.maxPoints)
		for k := 0; k < m.maxPoints; k++ {
			i := k * (n - 1) / (m.maxPoints - 1)
			xs[k] = m.xs[i]
			ys[k] = m.ys[i]
		}
	}
	// Reset the cadence counter whether or not the fit succeeds: Fit
	// only fails on a numerically non-PD kernel matrix (tiny NoiseVar
	// plus duplicated rows), and on failure the stale posterior keeps
	// serving while the retry waits for the next periodic boundary —
	// not every update, which would pay the O(n^3) attempt per
	// observation.
	m.pending = 0
	_ = m.g.Fit(xs, ys)
}

// N returns the number of absorbed observations (not the fitted
// subset size).
func (m *gpModel) N() int { return len(m.xs) }

// PredictMeanFast returns the posterior mean at x (the O(n) mean-only
// path, no variance solve).
func (m *gpModel) PredictMeanFast(x []float64) float64 {
	if !m.g.Fitted() {
		return 0
	}
	return m.g.PredictMean(x)
}

// PredictMeanFastBatch returns posterior means for every row of xs.
func (m *gpModel) PredictMeanFastBatch(xs [][]float64) []float64 {
	if !m.g.Fitted() {
		return make([]float64, len(xs))
	}
	return m.g.PredictMeanBatch(xs)
}

// PredictBatch returns posterior means and variances for every row.
func (m *gpModel) PredictBatch(xs [][]float64) (means, variances []float64) {
	if !m.g.Fitted() {
		return make([]float64, len(xs)), make([]float64, len(xs))
	}
	return m.g.PredictBatch(xs)
}

// ALMBatch scores candidates by posterior variance.
func (m *gpModel) ALMBatch(xs [][]float64) []float64 {
	if !m.g.Fitted() {
		return make([]float64, len(xs))
	}
	_, variances := m.g.PredictBatch(xs)
	return variances
}

// ALCScores scores candidates by expected average posterior variance
// over refs after observing the candidate (exact for a GP).
func (m *gpModel) ALCScores(cands, refs [][]float64) []float64 {
	if !m.g.Fitted() {
		return make([]float64, len(cands))
	}
	return m.g.ALCScores(cands, refs)
}

var _ Model = (*gpModel)(nil)

// String aids debugging output.
func (m *gpModel) String() string {
	return fmt.Sprintf("gp(n=%d, fitted=%d)", len(m.xs), m.g.N())
}
