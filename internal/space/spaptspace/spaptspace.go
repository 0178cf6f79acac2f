// Package spaptspace adapts the paper's 11 SPAPT kernels
// (internal/spapt) to the space.Space interface and registers them
// under their bare Table 1 names ("mm", "atax", ...). The adapter is a
// pure delegation: feature encoding, configuration keys, random
// sampling, the noise model, and the cost-model measurements are the
// kernel's own, so every trajectory through the space layer is
// byte-identical to the pre-registry SPAPT code path.
package spaptspace

import (
	"fmt"
	"sync"

	"alic/internal/noise"
	"alic/internal/rng"
	"alic/internal/space"
	"alic/internal/spapt"
)

// Space wraps one SPAPT kernel.
type Space struct {
	k *spapt.Kernel
}

// Registration happens at init time (the cmd/alic-lint registry
// contract): the whole Table 1 suite is selectable by name before any
// lookup can run.
func init() {
	for _, k := range spapt.Kernels() {
		space.Register(&Space{k: k})
	}
}

// Wrap adapts a kernel to the space interface. Use it for kernels
// outside the registered suite (retargeted machines via WithMachine,
// custom definitions).
func Wrap(k *spapt.Kernel) (*Space, error) {
	if k == nil {
		return nil, fmt.Errorf("spaptspace: nil kernel")
	}
	return &Space{k: k}, nil
}

// Kernel returns the underlying SPAPT kernel — for callers (the CLI's
// describe path) that want loop-nest detail beyond the space
// interface.
func (s *Space) Kernel() *spapt.Kernel { return s.k }

// Name implements space.Space with the kernel's Table 1 name.
func (s *Space) Name() string { return s.k.Name }

// Doc implements space.Space.
func (s *Space) Doc() string { return s.k.Doc }

// Params implements space.Space.
func (s *Space) Params() []space.Param {
	out := make([]space.Param, len(s.k.Params))
	for i, p := range s.k.Params {
		out[i] = space.Param{Name: p.Name, Max: p.Max}
	}
	return out
}

// Dim implements space.Space.
func (s *Space) Dim() int { return s.k.Dim() }

// Size implements space.Space.
func (s *Space) Size() float64 { return s.k.SpaceSize() }

// Validate implements space.Space.
func (s *Space) Validate() error { return s.k.Validate() }

// Check implements space.Space.
func (s *Space) Check(cfg space.Config) error { return s.k.CheckConfig(cfg) }

// Features implements space.Space with the kernel's own encoding.
func (s *Space) Features(cfg space.Config) []float64 { return s.k.Features(cfg) }

// Key implements space.Space with the kernel's own hash.
func (s *Space) Key(cfg space.Config) uint64 { return s.k.Key(cfg) }

// RandomConfig implements space.Space with the kernel's own sampling
// (one Intn draw per dimension — the stream consumption the dataset
// goldens pin).
func (s *Space) RandomConfig(r *rng.Stream) space.Config { return s.k.RandomConfig(r) }

// BaselineConfig implements space.Space.
func (s *Space) BaselineConfig() space.Config { return s.k.BaselineConfig() }

// Noise implements space.Space.
func (s *Space) Noise() noise.Model { return s.k.Noise }

// Measurer implements space.Space: observations sample the kernel's
// noise model around the analytic cost-model runtime. Profiling
// sessions, dataset generation and the experiment harness all measure
// through it.
func (s *Space) Measurer(seed uint64) (space.Measurer, error) {
	sampler, err := noise.NewSampler(s.k.Noise, s.k.Dim(), seed)
	if err != nil {
		return nil, err
	}
	return &measurer{k: s.k, sampler: sampler,
		trueMean: make(map[uint64]float64), compile: make(map[uint64]float64)}, nil
}

// measurer draws noisy cost-model runtimes. TrueRuntime and
// CompileTime walk the loop nests, so both are memoised per
// configuration: a corpus computes them when a learner first acquires
// a configuration, and every later learner on the corpus reads them.
// Racing computers store the same deterministic value.
type measurer struct {
	k       *spapt.Kernel
	sampler *noise.Sampler

	mu                sync.Mutex
	trueMean, compile map[uint64]float64
}

// TrueMean implements space.Measurer.
func (m *measurer) TrueMean(cfg space.Config) (float64, error) {
	return m.memo(m.trueMean, m.k.Key(cfg), cfg, m.k.TrueRuntime)
}

// CompileCost implements space.Measurer.
func (m *measurer) CompileCost(cfg space.Config) (float64, error) {
	return m.memo(m.compile, m.k.Key(cfg), cfg, m.k.CompileTime)
}

// memo returns table's entry for key, computing it from cfg on a miss.
func (m *measurer) memo(table map[uint64]float64, key uint64, cfg space.Config,
	compute func(spapt.Config) (float64, error)) (float64, error) {
	m.mu.Lock()
	v, ok := table[key]
	m.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := compute(cfg)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	table[key] = v
	m.mu.Unlock()
	return v, nil
}

// Observe implements space.Measurer: observation (cfg, ord) is a pure
// function of its arguments. The configuration is hashed once, for
// both the true-mean memo and the noise stream, and its features are
// encoded into a stack buffer, so a memoised configuration's
// observation allocates nothing (TestObserveAllocatesNothing).
func (m *measurer) Observe(cfg space.Config, ord int) (float64, error) {
	if ord < 0 {
		return 0, fmt.Errorf("spaptspace: negative observation index %d", ord)
	}
	key := m.k.Key(cfg)
	mu, err := m.memo(m.trueMean, key, cfg, m.k.TrueRuntime)
	if err != nil {
		return 0, err
	}
	var buf [32]float64 // every SPAPT kernel fits; longer ones spill to the heap
	return m.sampler.Sample(mu, m.k.AppendFeatures(buf[:0], cfg), key, ord), nil
}
