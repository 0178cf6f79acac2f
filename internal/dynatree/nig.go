// Package dynatree implements dynamic trees for regression (Taddy,
// Gramacy & Polson, JASA 2011) — the model used by the paper's active
// learner (§3.2). A dynamic tree is a particle filter over Bayesian
// regression trees: each particle is a recursive partition of the
// feature space whose leaves carry a constant Gaussian model with a
// Normal-Inverse-Gamma (NIG) conjugate prior. When a new observation
// arrives, particles are reweighted by its posterior-predictive
// density, resampled, and then locally perturbed by a stochastic
// stay / prune / grow move around the leaf containing the new point —
// the three updates shown in Figure 4 of the paper.
//
// The implementation provides the two acquisition heuristics used in
// §3.3: MacKay's ALM (maximum predictive variance) and Cohn's ALC
// (minimum expected average posterior variance over a reference set),
// the latter in closed form under the NIG leaf model.
//
// Deviation from the R dynaTree package: grow moves sample a single
// split proposal per particle (dimension uniform, cut uniform between
// the observed extremes) instead of marginalising over every possible
// split. This is standard SMC practice; particle diversity plays the
// role of proposal enumeration.
package dynatree

import (
	"math"

	"alic/internal/stats"
)

// nigPrior is the Normal-Inverse-Gamma prior shared by every leaf:
//
//	sigma^2        ~ InvGamma(a0, b0)
//	mu | sigma^2   ~ Normal(m0, sigma^2/kappa0)
type nigPrior struct {
	m0     float64
	kappa0 float64
	a0     float64
	b0     float64
	tabs   *nigTables // optional memo tables (nil falls back to direct calls)
}

// log2Pi hoists ln(2π), evaluated once with the same call the closed
// forms previously made per invocation.
var log2Pi = math.Log(2 * math.Pi)

// nigTables memoises the integer-keyed transcendental terms of the
// NIG closed forms — the LogGamma and Log calls that dominate the
// particle-propagation profile. Every leaf statistic n is a small
// integer bounded by the observation count, so LogGamma(a0 + n/2),
// LogGamma((2(a0+n/2)+1)/2) and Log(kappa0 + n) take only
// observations+1 distinct values per session. Entries hold exactly
// the bits the direct call would produce (the keys are computed with
// the same expressions), so substituting them cannot change any
// score or weight; the tables are extended in Forest.Update and New,
// before the weight pass reads them. The same
// tables serve the constant and the linear prior — both share a0 and
// kappa0 by construction.
type nigTables struct {
	lgA0  float64   // LogGamma(a0)
	logK0 float64   // Log(kappa0)
	logB0 float64   // Log(b0)
	lgAn  []float64 // [n] LogGamma(a0 + n/2)
	lgAnH []float64 // [n] LogGamma((2(a0+n/2)+1)/2)
	logKn []float64 // [n] Log(kappa0 + n)

	a0, kappa0 float64
}

func newNigTables(a0, kappa0, b0 float64) *nigTables {
	return &nigTables{
		lgA0:   stats.LogGamma(a0),
		logK0:  math.Log(kappa0),
		logB0:  math.Log(b0),
		a0:     a0,
		kappa0: kappa0,
	}
}

// extend grows the tables to cover leaf statistics up to n.
func (t *nigTables) extend(n int) {
	for i := len(t.lgAn); i <= n; i++ {
		an := t.a0 + float64(i)/2
		df := 2 * an
		t.lgAn = append(t.lgAn, stats.LogGamma(an))
		t.lgAnH = append(t.lgAnH, stats.LogGamma((df+1)/2))
		t.logKn = append(t.logKn, math.Log(t.kappa0+float64(i)))
	}
}

// The accessors fall back to the direct computation when the tables
// are absent (zero-value priors in tests) or the key is out of range;
// the fallback argument is always the site's original expression.

func (t *nigTables) gAn(an float64, n int) float64 {
	if t != nil && n >= 0 && n < len(t.lgAn) {
		return t.lgAn[n]
	}
	return stats.LogGamma(an)
}

func (t *nigTables) gAnH(anH float64, n int) float64 {
	if t != nil && n >= 0 && n < len(t.lgAnH) {
		return t.lgAnH[n]
	}
	return stats.LogGamma(anH)
}

func (t *nigTables) gA0(a0 float64) float64 {
	if t != nil {
		return t.lgA0
	}
	return stats.LogGamma(a0)
}

func (t *nigTables) lnKappaN(kappan float64, n int) float64 {
	if t != nil && n >= 0 && n < len(t.logKn) {
		return t.logKn[n]
	}
	return math.Log(kappan)
}

func (t *nigTables) lnKappa0(kappa0 float64) float64 {
	if t != nil {
		return t.logK0
	}
	return math.Log(kappa0)
}

func (t *nigTables) lnB0(b0 float64) float64 {
	if t != nil {
		return t.logB0
	}
	return math.Log(b0)
}

// suff holds the sufficient statistics of the observations in a leaf.
type suff struct {
	n     int
	sumY  float64
	sumY2 float64
}

func (s *suff) add(y float64) {
	s.n++
	s.sumY += y
	s.sumY2 += y * y
}

func (s *suff) merge(o suff) suff {
	return suff{n: s.n + o.n, sumY: s.sumY + o.sumY, sumY2: s.sumY2 + o.sumY2}
}

// posterior returns the NIG posterior parameters given the prior and
// the leaf's sufficient statistics.
func (p nigPrior) posterior(s suff) (mn, kappan, an, bn float64) {
	n := float64(s.n)
	kappan = p.kappa0 + n
	an = p.a0 + n/2
	if s.n == 0 {
		return p.m0, kappan, an, p.b0
	}
	mean := s.sumY / n
	mn = (p.kappa0*p.m0 + s.sumY) / kappan
	// Within-leaf scatter: sum (y - ybar)^2, guarded against negative
	// rounding for constant data.
	ss := s.sumY2 - s.sumY*s.sumY/n
	if ss < 0 {
		ss = 0
	}
	d := mean - p.m0
	bn = p.b0 + 0.5*ss + p.kappa0*n*d*d/(2*kappan)
	return mn, kappan, an, bn
}

// logMarginal returns the log marginal likelihood ln p(y_1..y_n) of the
// leaf's data under the NIG prior.
func (p nigPrior) logMarginal(s suff) float64 {
	if s.n == 0 {
		return 0
	}
	_, kappan, an, bn := p.posterior(s)
	n := float64(s.n)
	return -n/2*log2Pi +
		0.5*(p.tabs.lnKappa0(p.kappa0)-p.tabs.lnKappaN(kappan, s.n)) +
		p.a0*p.tabs.lnB0(p.b0) - an*math.Log(bn) +
		p.tabs.gAn(an, s.n) - p.tabs.gA0(p.a0)
}

// predictive returns the Student-t posterior predictive for a point in
// a leaf with statistics s: degrees of freedom, location, and squared
// scale.
func (p nigPrior) predictive(s suff) (df, loc, scale2 float64) {
	mn, kappan, an, bn := p.posterior(s)
	df = 2 * an
	loc = mn
	scale2 = bn * (kappan + 1) / (an * kappan)
	return df, loc, scale2
}

// predVariance returns the posterior predictive variance of a point in
// a leaf with statistics s: Var = scale2 * df/(df-2). Requires a0 > 1
// so that the variance exists even for empty leaves.
func (p nigPrior) predVariance(s suff) float64 {
	df, _, scale2 := p.predictive(s)
	if df <= 2 {
		return math.Inf(1)
	}
	return scale2 * df / (df - 2)
}

// logPredictiveDensity returns the log density of observation y under
// the leaf's posterior predictive Student-t distribution.
func (p nigPrior) logPredictiveDensity(s suff, y float64) float64 {
	df, loc, scale2 := p.predictive(s)
	z2 := (y - loc) * (y - loc) / scale2
	return p.tabs.gAnH((df+1)/2, s.n) - p.tabs.gAn(df/2, s.n) -
		0.5*math.Log(df*math.Pi*scale2) -
		(df+1)/2*math.Log1p(z2/df)
}

// expectedPostVariance returns the expected posterior-predictive
// variance of a point in the leaf *after* one additional observation is
// drawn from the current predictive distribution — the closed-form
// kernel of the ALC heuristic (Cohn, 1996) under the NIG model.
//
// Derivation: adding y increments kappa and a by 1 and 1/2, and b by
// (kappa_n / (2(kappa_n+1))) (y - m_n)^2, whose predictive expectation
// is b_n / (2(a_n - 1)). Hence E[b_{n+1}] = b_n (2a_n - 1)/(2a_n - 2).
func (p nigPrior) expectedPostVariance(s suff) float64 {
	_, kappan, an, bn := p.posterior(s)
	if an <= 1 {
		// E[b_{n+1}] requires a_n > 1 (the current predictive variance
		// must exist).
		return math.Inf(1)
	}
	eb := bn * (2*an - 1) / (2*an - 2)
	kap1 := kappan + 1
	a1 := an + 0.5
	return eb * (kap1 + 1) / (kap1 * (a1 - 1))
}
