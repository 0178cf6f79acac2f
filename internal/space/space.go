// Package space defines the search-space abstraction behind every
// tunable workload: a Space names a set of discrete configurations,
// encodes them as model features, and opens deterministic Measurers
// that observe (simulated or real) runtimes. The learner stack —
// dataset generation, the evaluator sources, the tuner, the serving
// layer, and the facade — speaks this interface instead of a concrete
// kernel suite, so new workloads plug in through the registry without
// touching core (ROADMAP item 5).
//
// Three providers ship behind the registry:
//
//   - spapt (internal/space/spaptspace): the paper's 11 SPAPT kernels,
//     registered under their bare Table 1 names ("mm", "atax", ...) —
//     a pure delegation to internal/spapt, byte-identical to the
//     pre-registry code path.
//   - synthetic (internal/space/synthetic): adversarial analytic
//     spaces with known optima ("synthetic/needle",
//     "synthetic/needle-shifted", "synthetic/plateau",
//     "synthetic/flat") for robustness tests.
//   - exec (internal/space/execspace): a compiler-flag space whose
//     measurer shells out to a real toolchain ("exec/cc") — opt-in via
//     environment, inert in hermetic builds.
//
// Registry grammar: a space name is either a bare legacy kernel name
// ("mm") or "provider/variant" ("synthetic/needle"); names are plain
// registry keys either way, registered at init time (the alic-lint
// registry contract) and looked up with ByName.
package space

import (
	"errors"
	"fmt"
	"hash/fnv"

	"alic/internal/noise"
	"alic/internal/rng"
)

// Config is one point of a search space: a value in [1, Max] for every
// parameter, in Params order. It aliases []int so provider-specific
// config types with the same shape (e.g. spapt.Config) interconvert
// freely.
type Config = []int

// Param is one tunable dimension of a search space. Values range over
// [1, Max].
type Param struct {
	// Name identifies the dimension.
	Name string
	// Max is the inclusive upper bound of the parameter value.
	Max int
}

// Space is one search problem: a named, finite space of discrete
// configurations with a feature encoding and a measurement model.
// Implementations must be immutable after construction — a Space is
// shared freely across goroutines and sessions.
type Space interface {
	// Name is the registry name of the space.
	Name() string
	// Doc is a one-line description of the workload.
	Doc() string
	// Params defines the tunable dimensions.
	Params() []Param
	// Dim returns len(Params()).
	Dim() int
	// Size returns the cardinality of the space (float64: real spaces
	// overflow int64).
	Size() float64
	// Validate checks the space definition.
	Validate() error
	// Check validates one configuration against the space.
	Check(cfg Config) error
	// Features maps a configuration to its raw feature vector, every
	// dimension scaled to [0, 1] — the encoding internal/dataset
	// standardises.
	Features(cfg Config) []float64
	// Key returns a stable hash of the configuration, used to key
	// noise streams and deduplicate configurations.
	Key(cfg Config) uint64
	// RandomConfig samples a configuration uniformly from the space.
	RandomConfig(r *rng.Stream) Config
	// BaselineConfig returns the identity configuration the speedup
	// baseline is measured at.
	BaselineConfig() Config
	// Noise describes the measurement-noise profile of the space's
	// environment (zero for live spaces, whose noise is the real
	// machine's).
	Noise() noise.Model
	// Measurer opens a measurement model over the space. Equal seeds
	// reproduce identical observation streams for simulated spaces;
	// live spaces may ignore the seed. Measurers are safe for
	// concurrent use.
	Measurer(seed uint64) (Measurer, error)
}

// Measurer observes configurations. Simulated measurers are pure in
// (cfg, ord) — any observation can be regenerated independently of
// sampling order — which is what keeps the evaluator engine
// bit-deterministic at every worker count. Live measurers execute real
// commands and are only as deterministic as the machine underneath.
type Measurer interface {
	// TrueMean returns the noise-free mean runtime of cfg. Live
	// measurers, which have no ground truth, return an error.
	TrueMean(cfg Config) (float64, error)
	// CompileCost returns the one-time compile cost of cfg in seconds.
	CompileCost(cfg Config) (float64, error)
	// Observe returns observation ord of cfg in seconds.
	Observe(cfg Config, ord int) (float64, error)
}

// Live marks spaces whose measurer executes real commands instead of
// sampling a simulation: no noise-free ground truth exists, so §4.5
// dataset corpora cannot be pre-generated for them (the facade's
// LearnLive path measures them directly instead), and the serving
// layer rejects them. Assert with IsLive.
type Live interface {
	Live() bool
}

// IsLive reports whether sp measures by executing real commands.
func IsLive(sp Space) bool {
	l, ok := sp.(Live)
	return ok && l.Live()
}

// CheckConfig is the generic configuration validity check: one value
// in [1, Max] per parameter. Providers without extra constraints use
// it as their Check implementation.
func CheckConfig(params []Param, cfg Config) error {
	if len(cfg) != len(params) {
		return fmt.Errorf("space: config has %d values, want %d", len(cfg), len(params))
	}
	for i, v := range cfg {
		if v < 1 || v > params[i].Max {
			return fmt.Errorf("space: parameter %s value %d outside [1, %d]",
				params[i].Name, v, params[i].Max)
		}
	}
	return nil
}

// UniformFeatures is the generic raw feature encoding: dimension i is
// (v-1)/(Max-1), so every axis spans [0, 1]. Single-valued dimensions
// encode as 0.
func UniformFeatures(params []Param, cfg Config) []float64 {
	return AppendUniformFeatures(make([]float64, 0, len(cfg)), params, cfg)
}

// AppendUniformFeatures appends cfg's UniformFeatures encoding to dst
// and returns the extended slice, so a caller that encodes once per
// observation can use a buffer it owns.
func AppendUniformFeatures(dst []float64, params []Param, cfg Config) []float64 {
	for i, v := range cfg {
		x := 0.0
		if params[i].Max > 1 {
			x = float64(v-1) / float64(params[i].Max-1)
		}
		dst = append(dst, x)
	}
	return dst
}

// UniformRandom samples one value in [1, Max] per parameter — the
// generic RandomConfig implementation. It draws exactly one Intn per
// dimension, matching the legacy SPAPT sampling pattern.
func UniformRandom(params []Param, r *rng.Stream) Config {
	cfg := make(Config, len(params))
	for i, p := range params {
		cfg[i] = 1 + r.Intn(p.Max)
	}
	return cfg
}

// BaselineOnes returns the all-ones configuration (every parameter at
// its identity value).
func BaselineOnes(n int) Config {
	cfg := make(Config, n)
	for i := range cfg {
		cfg[i] = 1
	}
	return cfg
}

// HashConfig hashes a (space name, configuration) pair with FNV-64a —
// the stable key function providers share so equal configs of
// different spaces never collide into the same noise stream.
func HashConfig(name string, cfg Config) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	var buf [8]byte
	for _, v := range cfg {
		for i := 0; i < 8; i++ {
			buf[i] = byte(uint64(v) >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// ErrTooManyConfigs reports a request for more distinct configurations
// than SampleDistinct draws from a space; assert with errors.Is.
var ErrTooManyConfigs = errors.New("more than half of the space requested")

// SampleDistinct draws n configurations of sp with distinct keys from
// r, in draw order, rejecting repeats. It refuses n above half the
// space's size with ErrTooManyConfigs: beyond that, rejection sampling
// slows down, and past the size it would never finish.
func SampleDistinct(sp Space, n int, r *rng.Stream) ([]Config, error) {
	if float64(n) > sp.Size()/2 {
		return nil, fmt.Errorf("space %s: %d distinct configurations from %g: %w",
			sp.Name(), n, sp.Size(), ErrTooManyConfigs)
	}
	seen := make(map[uint64]bool, n)
	out := make([]Config, 0, n)
	for len(out) < n {
		cfg := sp.RandomConfig(r)
		key := sp.Key(cfg)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, cfg)
	}
	return out, nil
}

// SizeOf returns the cardinality of a parameter list (the product of
// ranges) as a float64.
func SizeOf(params []Param) float64 {
	size := 1.0
	for _, p := range params {
		size *= float64(p.Max)
	}
	return size
}

// ValidateParams is the generic definition check: at least one
// parameter, unique names, positive ranges.
func ValidateParams(params []Param) error {
	if len(params) == 0 {
		return fmt.Errorf("space: no parameters")
	}
	seen := make(map[string]bool, len(params))
	for _, p := range params {
		if p.Name == "" {
			return fmt.Errorf("space: unnamed parameter")
		}
		if seen[p.Name] {
			return fmt.Errorf("space: duplicate parameter %q", p.Name)
		}
		seen[p.Name] = true
		if p.Max < 1 {
			return fmt.Errorf("space: parameter %s Max %d < 1", p.Name, p.Max)
		}
	}
	return nil
}
