// Custom search space: the registry accepts user-defined workloads
// without forking the learner stack. This example implements the Space
// interface for a toy stencil workload — entirely through the public
// alic API, no internal packages — registers it at init time, and then
// drives it through the same facade paths the built-in providers use:
// name lookup, corpus generation, active learning, and model-ranked
// winner selection.
//
// The one real obligation a custom simulated space carries is the
// purity contract: observations must be pure in (configuration,
// ordinal), so any observation can be regenerated independently of
// sampling order. That is what keeps learning runs bit-identical at
// every evaluator worker count. The measurer below derives every
// sample from a counter-mode hash of (seed, config key, ordinal) —
// no shared state, no sampling-order dependence.
//
//	go run ./examples/custom-space
//	go run ./examples/custom-space -nmax 120
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"alic"
)

// stencilSpace is a toy 3-dimensional tuning problem: a 2D stencil
// kernel with a tile size, an unroll factor, and a vector width. The
// simulated runtime rewards mid-range tiles (cache fit), mild unroll
// (register pressure beyond that), and wide vectors only when the tile
// is large enough to feed them.
type stencilSpace struct {
	params []alic.SpaceParam
}

func newStencilSpace() *stencilSpace {
	return &stencilSpace{params: []alic.SpaceParam{
		{Name: "tile", Max: 16},
		{Name: "unroll", Max: 6},
		{Name: "vector", Max: 4},
	}}
}

// Registration happens at init time with a constant name: the registry
// contract (enforced by cmd/alic-lint's registry pass) is that every
// name is registered before main can look anything up.
func init() {
	alic.RegisterSpace(newStencilSpace())
}

func (s *stencilSpace) Name() string { return "example/stencil" }
func (s *stencilSpace) Doc() string {
	return "toy 2D stencil: tile size x unroll factor x vector width"
}

func (s *stencilSpace) Params() []alic.SpaceParam {
	out := make([]alic.SpaceParam, len(s.params))
	copy(out, s.params)
	return out
}

func (s *stencilSpace) Dim() int      { return len(s.params) }
func (s *stencilSpace) Size() float64 { return alic.SpaceSizeOf(s.params) }

// The mechanical methods compose the facade's helper kit instead of
// reimplementing the contracts.
func (s *stencilSpace) Validate() error             { return alic.ValidateSpaceParams(s.params) }
func (s *stencilSpace) Check(cfg alic.Config) error { return alic.CheckSpaceConfig(s.params, cfg) }
func (s *stencilSpace) Key(cfg alic.Config) uint64  { return alic.HashSpaceConfig(s.Name(), cfg) }
func (s *stencilSpace) BaselineConfig() alic.Config { return alic.BaselineOnesConfig(s.Dim()) }
func (s *stencilSpace) Noise() alic.NoiseModel      { return alic.NoiseModel{BaseRel: 0.01} }
func (s *stencilSpace) Features(cfg alic.Config) []float64 {
	return alic.UniformSpaceFeatures(s.params, cfg)
}
func (s *stencilSpace) RandomConfig(r *alic.RandStream) alic.Config {
	return alic.UniformRandomConfig(s.params, r)
}

// trueMean is the analytic runtime surface (seconds).
func (s *stencilSpace) trueMean(cfg alic.Config) float64 {
	tile := float64(cfg[0])
	unroll := float64(cfg[1])
	vector := float64(cfg[2])
	t := 2.0
	t += 0.02 * (tile - 10) * (tile - 10)   // cache sweet spot near tile=10
	t += 0.15 * (unroll - 2) * (unroll - 2) // register pressure past unroll=2
	if tile >= 8 {
		t -= 0.2 * (vector - 1) // wide vectors pay off only on big tiles
	} else {
		t += 0.1 * (vector - 1) // otherwise they just add shuffle cost
	}
	return t
}

func (s *stencilSpace) Measurer(seed uint64) (alic.SpaceMeasurer, error) {
	return &stencilMeasurer{sp: s, seed: seed}, nil
}

type stencilMeasurer struct {
	sp   *stencilSpace
	seed uint64
}

func (m *stencilMeasurer) TrueMean(cfg alic.Config) (float64, error) {
	if err := m.sp.Check(cfg); err != nil {
		return 0, err
	}
	return m.sp.trueMean(cfg), nil
}

func (m *stencilMeasurer) CompileCost(cfg alic.Config) (float64, error) {
	if err := m.sp.Check(cfg); err != nil {
		return 0, err
	}
	// Heavier unroll produces more code to compile.
	return 3.0 + 0.5*float64(cfg[1]), nil
}

// Observe is pure in (cfg, ord): the jitter comes from a counter-mode
// mix of (seed, config key, ordinal), so regenerating observation 7 of
// a configuration gives the same value no matter what was sampled in
// between — the determinism contract every simulated space must keep.
func (m *stencilMeasurer) Observe(cfg alic.Config, ord int) (float64, error) {
	if ord < 0 {
		return 0, fmt.Errorf("stencil: negative observation index %d", ord)
	}
	mu, err := m.TrueMean(cfg)
	if err != nil {
		return 0, err
	}
	// splitmix64 over the observation identity -> uniform in [0, 1).
	x := m.seed ^ m.sp.Key(cfg) ^ (uint64(ord) * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	u := float64(x>>11) / (1 << 53)
	// +-1% multiplicative jitter around the true mean.
	return mu * (1 + 0.01*(2*u-1)), nil
}

func main() {
	nmax := flag.Int("nmax", 80, "acquisition budget")
	flag.Parse()

	// The registered space is reachable through every name-based path.
	sp, err := alic.SpaceByName("example/stencil")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("space %s: %s (%d params, %.0f configs)\n",
		sp.Name(), sp.Doc(), sp.Dim(), sp.Size())

	opts := alic.DefaultLearnOptions()
	// The corpus may cover at most half of the 384-config space (the
	// rejection sampler's density bound).
	opts.PoolSize = 140
	opts.TestSize = 50
	opts.Learner.NMax = *nmax
	opts.Learner.NCand = 60
	opts.Learner.EvalEvery = 20
	opts.Learner.Tree.Particles = 150
	opts.Learner.Tree.ScoreParticles = 30

	res, err := alic.Learn(context.Background(), sp, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("learned from %d acquisitions (%.0f simulated seconds): test RMSE %.4f\n",
		res.Acquired, res.Cost, res.FinalError)

	// Rank the corpus with the trained model and compare the predicted
	// winner against the analytic optimum the simulation hides.
	ds := res.Dataset
	preds := res.Model.PredictMeanFastBatch(ds.Features)
	best := 0
	for i, p := range preds {
		if p < preds[best] {
			best = i
		}
	}
	// True means are computed on demand; the simulation hides them
	// from the learner, not from this check.
	trueMean := make([]float64, len(ds.Configs))
	truth := 0
	for i := range ds.Configs {
		if trueMean[i], err = ds.TrueMean(i); err != nil {
			log.Fatal(err)
		}
		if trueMean[i] < trueMean[truth] {
			truth = i
		}
	}
	fmt.Printf("model's winner: tile=%d unroll=%d vector=%d (predicted %.3fs, true %.3fs)\n",
		ds.Configs[best][0], ds.Configs[best][1], ds.Configs[best][2],
		preds[best], trueMean[best])
	fmt.Printf("corpus optimum: tile=%d unroll=%d vector=%d (true %.3fs)\n",
		ds.Configs[truth][0], ds.Configs[truth][1], ds.Configs[truth][2],
		trueMean[truth])
}
