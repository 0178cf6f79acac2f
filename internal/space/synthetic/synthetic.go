// Package synthetic provides adversarial analytic search spaces with
// known optima — the robustness suite. Each space's
// true runtime surface is a closed-form function of the [0,1]-scaled
// feature vector, so tests can compare what the learner found against
// what is actually there:
//
//   - "synthetic/needle": a flat landscape with one narrow, deep well
//     (needle-in-a-haystack) — random sampling almost never hits it,
//     and a model that over-smooths never represents it.
//   - "synthetic/needle-shifted": the same landscape with the needle
//     displaced slightly — a second, related needle for tests that
//     need two spaces of the same shape.
//   - "synthetic/plateau": a deceptive surface — a broad, attractive
//     basin that draws acquisition toward a mediocre region while the
//     true optimum hides in a small deep hole elsewhere.
//   - "synthetic/flat": a constant surface under loud heteroskedastic
//     noise — there is nothing to learn, and active learning must not
//     do worse than random sampling on it (the acquisition-pathology
//     regression guard).
//
// All spaces share the same four-dimensional parameterisation.
package synthetic

import (
	"fmt"
	"math"

	"alic/internal/noise"
	"alic/internal/rng"
	"alic/internal/space"
)

// Registration happens at init time (the cmd/alic-lint registry
// contract).
func init() {
	space.Register(Needle())
	space.Register(NeedleShifted())
	space.Register(Plateau())
	space.Register(Flat())
}

// params is the shared 4-dimensional space: 12 values per axis,
// 20,736 configurations.
func params() []space.Param {
	return []space.Param{
		{Name: "p0", Max: 12},
		{Name: "p1", Max: 12},
		{Name: "p2", Max: 12},
		{Name: "p3", Max: 12},
	}
}

// well is a Gaussian well of the given depth and radius centred at c.
type well struct {
	c             []float64
	depth, radius float64
}

// at evaluates the well at pos.
func (w well) at(pos []float64) float64 {
	d2 := 0.0
	for i := range w.c {
		dx := pos[i] - w.c[i]
		d2 += dx * dx
	}
	return -w.depth * math.Exp(-d2/(w.radius*w.radius))
}

// texture is a mild smooth variation that keeps the landscape from
// being exactly constant away from the wells (a perfectly flat
// surface would make any model look perfect).
func texture(pos []float64) float64 {
	s := 0.0
	for i, x := range pos {
		s += math.Sin(3*x + float64(i))
	}
	return 0.02 * s
}

// Needle returns the needle-in-a-haystack space.
func Needle() space.Space {
	return &analytic{
		name:     "synthetic/needle",
		doc:      "flat landscape with one narrow deep well (needle-in-a-haystack)",
		textured: true,
		wells:    []well{{c: []float64{0.7, 0.3, 0.9, 0.2}, depth: 0.85, radius: 0.12}},
		nm:       noise.Quiet(),
	}
}

// NeedleShifted returns the needle space with the well displaced — a
// related twin of Needle.
func NeedleShifted() space.Space {
	return &analytic{
		name:     "synthetic/needle-shifted",
		doc:      "the needle landscape with the well displaced",
		textured: true,
		wells:    []well{{c: []float64{0.78, 0.38, 0.82, 0.28}, depth: 0.85, radius: 0.12}},
		nm:       noise.Quiet(),
	}
}

// Plateau returns the deceptive-plateau space.
func Plateau() space.Space {
	return &analytic{
		name:     "synthetic/plateau",
		doc:      "broad attractive basin hiding the true optimum in a small deep hole",
		textured: true,
		wells: []well{
			{c: []float64{0.25, 0.25, 0.25, 0.25}, depth: 0.4, radius: 0.45}, // basin
			{c: []float64{0.85, 0.85, 0.85, 0.85}, depth: 0.75, radius: 0.1}, // hole
		},
		nm: noise.Moderate(),
	}
}

// Flat returns the high-noise flat space.
func Flat() space.Space {
	return &analytic{
		name: "synthetic/flat",
		doc:  "constant runtime under loud heteroskedastic noise (nothing to learn)",
		nm:   noise.Loud(),
	}
}

// analytic is a search space whose true runtime is a closed-form
// function of the raw feature vector: 1, plus the texture when
// textured, plus each well in order.
type analytic struct {
	name     string
	doc      string
	textured bool
	wells    []well
	nm       noise.Model
}

// mu evaluates the true runtime at pos. A method rather than a
// function value, so pos does not escape and callers can pass a stack
// buffer.
func (s *analytic) mu(pos []float64) float64 {
	v := 1.0
	if s.textured {
		v += texture(pos)
	}
	for _, w := range s.wells {
		v += w.at(pos)
	}
	return v
}

// features encodes cfg into dst's spare capacity.
func features(dst []float64, cfg space.Config) []float64 {
	return space.AppendUniformFeatures(dst, params(), cfg)
}

// Name implements space.Space.
func (s *analytic) Name() string { return s.name }

// Doc implements space.Space.
func (s *analytic) Doc() string { return s.doc }

// Params implements space.Space.
func (s *analytic) Params() []space.Param { return params() }

// Dim implements space.Space.
func (s *analytic) Dim() int { return len(params()) }

// Size implements space.Space.
func (s *analytic) Size() float64 { return space.SizeOf(params()) }

// Validate implements space.Space.
func (s *analytic) Validate() error {
	if err := space.ValidateParams(params()); err != nil {
		return err
	}
	return s.nm.Validate()
}

// Check implements space.Space.
func (s *analytic) Check(cfg space.Config) error { return space.CheckConfig(params(), cfg) }

// Features implements space.Space with the uniform [0,1] encoding.
func (s *analytic) Features(cfg space.Config) []float64 {
	return features(make([]float64, 0, len(cfg)), cfg)
}

// Key implements space.Space.
func (s *analytic) Key(cfg space.Config) uint64 { return space.HashConfig(s.name, cfg) }

// RandomConfig implements space.Space.
func (s *analytic) RandomConfig(r *rng.Stream) space.Config {
	return space.UniformRandom(params(), r)
}

// BaselineConfig implements space.Space.
func (s *analytic) BaselineConfig() space.Config { return space.BaselineOnes(s.Dim()) }

// Noise implements space.Space.
func (s *analytic) Noise() noise.Model { return s.nm }

// TrueMean evaluates the analytic surface at cfg — exported so tests
// can compare learner behaviour against the known ground truth
// without opening a measurer.
func (s *analytic) TrueMean(cfg space.Config) float64 {
	var buf [4]float64
	return s.mu(features(buf[:0], cfg))
}

// Measurer implements space.Space: observations sample the space's
// noise model around the analytic surface, pure in (cfg, ord).
func (s *analytic) Measurer(seed uint64) (space.Measurer, error) {
	sampler, err := noise.NewSampler(s.nm, s.Dim(), seed)
	if err != nil {
		return nil, err
	}
	return &measurer{s: s, sampler: sampler}, nil
}

type measurer struct {
	s       *analytic
	sampler *noise.Sampler
}

// TrueMean implements space.Measurer.
func (m *measurer) TrueMean(cfg space.Config) (float64, error) {
	return m.s.TrueMean(cfg), nil
}

// CompileCost implements space.Measurer: a deterministic cost that
// varies mildly across the space, so the §4.3 ledger sees non-uniform
// compile charges like it does on SPAPT.
func (m *measurer) CompileCost(cfg space.Config) (float64, error) {
	var buf [4]float64
	pos := features(buf[:0], cfg)
	s := 0.0
	for _, x := range pos {
		s += x
	}
	return 0.08 + 0.04*s/float64(len(pos)), nil
}

// Observe implements space.Measurer. The features are encoded into a
// stack buffer, so an observation allocates nothing
// (TestObserveAllocatesNothing).
func (m *measurer) Observe(cfg space.Config, ord int) (float64, error) {
	if ord < 0 {
		return 0, fmt.Errorf("synthetic: negative observation index %d", ord)
	}
	var buf [4]float64
	pos := features(buf[:0], cfg)
	return m.sampler.Sample(m.s.mu(pos), pos, m.s.Key(cfg), ord), nil
}
