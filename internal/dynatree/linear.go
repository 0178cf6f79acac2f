package dynatree

import (
	"errors"
	"math"

	"alic/internal/linalg"
)

// LeafModel selects the per-leaf regression model, mirroring the R
// dynaTree package's "constant" and "linear" options.
type LeafModel int

const (
	// ConstantLeaf fits a constant mean per leaf (the default, and the
	// model the paper's experiments use).
	ConstantLeaf LeafModel = iota
	// LinearLeaf fits a Bayesian linear regression per leaf: fewer,
	// larger leaves on smooth responses at a higher per-update cost.
	LinearLeaf
)

func (m LeafModel) String() string {
	switch m {
	case ConstantLeaf:
		return "constant"
	case LinearLeaf:
		return "linear"
	default:
		return "LeafModel(?)"
	}
}

// linSuff holds the sufficient statistics of a linear leaf over
// augmented inputs x~ = (1, x): X'X, X'y and y'y, plus a lazily
// computed, cached posterior.
type linSuff struct {
	d   int // augmented dimension (1 + input dim)
	n   int
	xtx [][]float64
	xty []float64
	yty float64

	// Cached posterior (valid when !dirty): Cholesky factor of
	// Lambda_n = kappa0 I + X'X, posterior mean m_n, and b_n.
	dirty bool
	chol  [][]float64
	mn    []float64
	bn    float64

	// degenerate marks a leaf whose Lambda_n could not be factored
	// even with escalated jitter (duplicate / near-collinear feature
	// columns at magnitudes that swamp the kappa0 ridge, or non-finite
	// cross-products). Prediction, density and scoring then fall back
	// to the constant-leaf closed form — see ensure.
	degenerate bool
}

func newLinSuff(dim int) *linSuff {
	d := dim + 1
	s := &linSuff{d: d, dirty: true}
	s.xtx = make([][]float64, d)
	for i := range s.xtx {
		s.xtx[i] = make([]float64, d)
	}
	s.xty = make([]float64, d)
	return s
}

// augInto writes the augmented input (1, x) into dst, which must have
// length len(x)+1, and returns it. Keeping the buffer caller-owned is
// what lets the steady-state scoring kernels run allocation-free.
//
//alic:noalloc
func augInto(dst, x []float64) []float64 {
	dst[0] = 1
	copy(dst[1:], x)
	return dst
}

// add absorbs one observation. The augmented row is formed implicitly
// (xa[0] = 1, xa[i] = x[i-1]) so the per-observation hot path of
// Update allocates nothing.
func (s *linSuff) add(x []float64, y float64) {
	for i := 0; i < s.d; i++ {
		xi := 1.0
		if i > 0 {
			xi = x[i-1]
		}
		for j := 0; j <= i; j++ {
			xj := 1.0
			if j > 0 {
				xj = x[j-1]
			}
			v := xi * xj
			s.xtx[i][j] += v
			if i != j {
				s.xtx[j][i] += v
			}
		}
		s.xty[i] += xi * y
	}
	s.yty += y * y
	s.n++
	s.dirty = true
}

func (s *linSuff) clone() *linSuff {
	cp := &linSuff{d: s.d, n: s.n, yty: s.yty, dirty: true}
	cp.xtx = make([][]float64, s.d)
	for i := range cp.xtx {
		cp.xtx[i] = append([]float64(nil), s.xtx[i]...)
	}
	cp.xty = append([]float64(nil), s.xty...)
	return cp
}

// merge returns a new linSuff combining s and o.
func (s *linSuff) merge(o *linSuff) *linSuff {
	out := s.clone()
	for i := 0; i < out.d; i++ {
		for j := 0; j < out.d; j++ {
			out.xtx[i][j] += o.xtx[i][j]
		}
		out.xty[i] += o.xty[i]
	}
	out.yty += o.yty
	out.n += o.n
	out.dirty = true
	return out
}

// linPrior is the Normal-Inverse-Gamma prior of the linear leaf:
// beta | sigma^2 ~ N(beta0, sigma^2/kappa0 I) with beta0 = (m0, 0...),
// sigma^2 ~ InvGamma(a0, b0).
type linPrior struct {
	m0     float64
	kappa0 float64
	a0     float64
	b0     float64
	tabs   *nigTables // optional memo tables shared with the constant prior
}

// ensure computes (and caches) the posterior of s.
//
// The ridge kappa0 I makes Lambda SPD in exact arithmetic, but an
// ill-conditioned kernel (duplicate or near-collinear feature
// columns, magnitudes that make kappa0 vanish in rounding) can defeat
// the factorisation. Rather than crash the learner, ensure escalates:
// growing relative jitter on the diagonal, the usual remedy for a
// near-singular Cholesky factorisation, and — past the cap, or when
// the cross-products themselves are non-finite — a documented
// fallback to the constant-leaf closed form. The first augmented
// column is all-ones, so the leaf's own statistics project exactly
// onto the constant model (constSuff); a degenerate linear leaf
// behaves bit-for-bit like a constant leaf until new data restores
// factorability.
func (p linPrior) ensure(s *linSuff) {
	if !s.dirty && (s.chol != nil || s.degenerate) {
		return
	}
	s.degenerate = false
	finite := true
	for i := 0; finite && i < s.d; i++ {
		for _, v := range s.xtx[i] {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				finite = false
				break
			}
		}
		if math.IsInf(s.xty[i], 0) || math.IsNaN(s.xty[i]) {
			finite = false
		}
	}
	var chol [][]float64
	err := errNonFinite
	if finite {
		lambda := make([][]float64, s.d)
		for i := range lambda {
			lambda[i] = append([]float64(nil), s.xtx[i]...)
			lambda[i][i] += p.kappa0
		}
		chol, err = linalg.Cholesky(lambda)
		// Escalating jitter: lift the diagonal by growing relative
		// ridges until the matrix factors; give up past 1e-2 relative.
		for jitter := 1e-10; err != nil && jitter <= 1e-2; jitter *= 10 {
			for i := range lambda {
				lambda[i][i] += jitter * (1 + math.Abs(lambda[i][i]))
			}
			chol, err = linalg.Cholesky(lambda)
		}
	}
	if err != nil {
		s.degenerate = true
		s.chol = nil
		s.mn = nil
		s.bn = 0
		s.dirty = false
		return
	}
	// rhs = K0 beta0 + X'y with beta0 = (m0, 0, ...).
	rhs := append([]float64(nil), s.xty...)
	rhs[0] += p.kappa0 * p.m0
	mn := linalg.CholSolve(chol, rhs)
	// b_n = b0 + (y'y + beta0'K0 beta0 - m_n' Lambda m_n)/2, and
	// m_n' Lambda m_n = m_n . rhs.
	bn := p.b0 + 0.5*(s.yty+p.kappa0*p.m0*p.m0-linalg.Dot(mn, rhs))
	if bn < 1e-12 {
		bn = 1e-12
	}
	s.chol = chol
	s.mn = mn
	s.bn = bn
	s.dirty = false
}

// errNonFinite poisons the factorisation when the sufficient
// statistics themselves are non-finite (jitter cannot help).
var errNonFinite = errors.New("dynatree: non-finite linear sufficient statistics")

// constSuff projects the linear leaf's statistics onto the constant
// model: the first augmented column is all-ones, so xty[0] = Σy and
// yty = Σy² — exactly the constant leaf's sufficient statistics.
func (s *linSuff) constSuff() suff {
	return suff{n: s.n, sumY: s.xty[0], sumY2: s.yty}
}

// nig is the constant-leaf prior with the same hyperparameters, used
// by the degenerate fallback.
func (p linPrior) nig() nigPrior {
	return nigPrior{m0: p.m0, kappa0: p.kappa0, a0: p.a0, b0: p.b0, tabs: p.tabs}
}

func (p linPrior) an(s *linSuff) float64 { return p.a0 + float64(s.n)/2 }

// logMarginal returns ln p(y_1..y_n) under the linear NIG prior.
func (p linPrior) logMarginal(s *linSuff) float64 {
	if s.n == 0 {
		return 0
	}
	p.ensure(s)
	if s.degenerate {
		return p.nig().logMarginal(s.constSuff())
	}
	an := p.an(s)
	n := float64(s.n)
	d := float64(s.d)
	return -n/2*log2Pi +
		0.5*(d*p.tabs.lnKappa0(p.kappa0)-linalg.LogDetFromChol(s.chol)) +
		p.a0*p.tabs.lnB0(p.b0) - an*math.Log(s.bn) +
		p.tabs.gAn(an, s.n) - p.tabs.gA0(p.a0)
}

// linScratchLen is the caller-owned scratch length the linPrior
// predictive entry points need for inputs of the given dimension: one
// augmented input plus one triangular-solve vector.
func linScratchLen(dim int) int { return 2 * (dim + 1) }

// predictive returns the Student-t posterior predictive at x. scratch
// is caller-owned of length 2*(len(x)+1) — augmented input plus solve
// scratch (see linScratchLen); passing nil falls back to a fresh
// allocation.
func (p linPrior) predictive(s *linSuff, x, scratch []float64) (df, loc, scale2 float64) {
	p.ensure(s)
	if s.degenerate {
		return p.nig().predictive(s.constSuff())
	}
	if len(scratch) < 2*s.d {
		scratch = make([]float64, 2*s.d)
	}
	xa := augInto(scratch[:s.d], x)
	an := p.an(s)
	df = 2 * an
	loc = linalg.Dot(s.mn, xa)
	scale2 = s.bn / an * (1 + linalg.QuadFormInto(s.chol, xa, scratch[s.d:2*s.d]))
	return df, loc, scale2
}

// predVariance returns the predictive variance at x; scratch as for
// predictive.
func (p linPrior) predVariance(s *linSuff, x, scratch []float64) float64 {
	df, _, scale2 := p.predictive(s, x, scratch)
	if df <= 2 {
		return math.Inf(1)
	}
	return scale2 * df / (df - 2)
}

// logPredictiveDensity returns ln t_df(y; loc, scale2); scratch as
// for predictive.
func (p linPrior) logPredictiveDensity(s *linSuff, x []float64, y float64, scratch []float64) float64 {
	df, loc, scale2 := p.predictive(s, x, scratch)
	z2 := (y - loc) * (y - loc) / scale2
	return p.tabs.gAnH((df+1)/2, s.n) - p.tabs.gAn(df/2, s.n) -
		0.5*math.Log(df*math.Pi*scale2) -
		(df+1)/2*math.Log1p(z2/df)
}
