// Package noise models measurement noise for simulated profiling runs.
// Section 1 of the paper catalogues the sources it must reproduce:
// competing processes and frequency scaling (rare, large, one-sided
// interference spikes), memory-layout changes from ASLR and physical
// page allocation (per-run offsets that persist for the process
// lifetime), allocator and scheduler jitter (baseline Gaussian), and
// thermal/Turbo drift (slowly varying, correlated across back-to-back
// runs of the same binary).
//
// Crucially, Table 2 of the paper shows the noise is heteroskedastic:
// its magnitude varies by orders of magnitude both across kernels and
// across regions of a single kernel's optimization space. The model
// therefore scales its baseline components by a smooth pseudo-random
// field over the configuration space, so some regions are nearly
// deterministic while others are extremely noisy — the property the
// sequential-analysis learner exploits.
//
// All randomness is drawn from deterministic streams derived from
// (kernel seed, configuration, observation index), so any observation
// can be regenerated independently of sampling order.
package noise

import (
	"fmt"
	"math"

	"alic/internal/rng"
)

// Model describes the noise profile of one kernel's measurement
// environment. All *Rel fields are relative to the true mean runtime.
type Model struct {
	// BaseRel is the standard deviation of the ever-present Gaussian
	// jitter (scheduler, allocator, timer), as a fraction of the mean.
	BaseRel float64
	// LayoutRel is the standard deviation of the per-run memory-layout
	// offset (ASLR, page colouring). The offset is resampled once per
	// run and shifts the whole run's time.
	LayoutRel float64
	// HeteroAmp scales the smooth heteroskedastic field: the effective
	// sigma at configuration x is multiplied by
	// (1 + HeteroAmp * field(x)) with field in [0, 1].
	HeteroAmp float64
	// HeteroFreq sets the spatial frequency of the field (how quickly
	// noisy and quiet regions alternate across the space).
	HeteroFreq float64
	// SpikeProb is the per-run probability of an interference spike
	// (another process stealing the machine).
	SpikeProb float64
	// SpikeRel is the log-normal sigma of spike magnitude; spikes only
	// ever slow a run down.
	SpikeRel float64
	// DriftRel is the standard deviation of the AR(1) thermal drift
	// across consecutive observations of the same binary.
	DriftRel float64
	// DriftRho is the AR(1) coefficient of the drift (0 disables).
	DriftRho float64
}

// Validate checks the model parameters.
func (m Model) Validate() error {
	switch {
	case m.BaseRel < 0 || m.LayoutRel < 0 || m.HeteroAmp < 0 ||
		m.SpikeProb < 0 || m.SpikeRel < 0 || m.DriftRel < 0:
		return fmt.Errorf("noise: negative parameter in %+v", m)
	case m.SpikeProb > 1:
		return fmt.Errorf("noise: SpikeProb %v > 1", m.SpikeProb)
	case m.DriftRho < 0 || m.DriftRho >= 1:
		return fmt.Errorf("noise: DriftRho %v outside [0, 1)", m.DriftRho)
	}
	return nil
}

// Quiet returns a low-noise profile (lu/mvt/hessian-like in Table 2).
func Quiet() Model {
	return Model{
		BaseRel:    0.002,
		LayoutRel:  0.003,
		HeteroAmp:  2.0,
		HeteroFreq: 2.0,
		SpikeProb:  0.002,
		SpikeRel:   0.3,
		DriftRel:   0.001,
		DriftRho:   0.6,
	}
}

// Moderate returns a mid-noise profile (atax/jacobi-like in Table 2).
func Moderate() Model {
	return Model{
		BaseRel:    0.006,
		LayoutRel:  0.010,
		HeteroAmp:  5.0,
		HeteroFreq: 3.0,
		SpikeProb:  0.01,
		SpikeRel:   0.5,
		DriftRel:   0.004,
		DriftRho:   0.7,
	}
}

// Loud returns a high-noise profile (correlation-like in Table 2, whose
// runtime variance spans ten orders of magnitude across the space).
func Loud() Model {
	return Model{
		BaseRel:    0.015,
		LayoutRel:  0.030,
		HeteroAmp:  14.0,
		HeteroFreq: 4.0,
		SpikeProb:  0.05,
		SpikeRel:   0.9,
		DriftRel:   0.010,
		DriftRho:   0.8,
	}
}

// Sampler draws noisy runtimes for one kernel. It is keyed by a kernel
// seed so different kernels see independent noise, and it is stateless
// across calls: observation (cfg, obsIdx) is a pure function of its
// arguments, which lets datasets regenerate any observation on demand.
type Sampler struct {
	model Model
	seed  uint64
	// Field weights, fixed per kernel: a random direction and phase per
	// harmonic of the heteroskedastic field.
	weights [][]float64
	phases  []float64
}

const fieldHarmonics = 3

// NewSampler builds a sampler for a kernel with the given noise model,
// feature dimensionality, and seed.
func NewSampler(m Model, dim int, seed uint64) (*Sampler, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if dim < 1 {
		return nil, fmt.Errorf("noise: dimension %d < 1", dim)
	}
	s := &Sampler{model: m, seed: seed}
	r := rng.NewStream(seed, 0x6e6f697365) // "noise"
	s.weights = make([][]float64, fieldHarmonics)
	s.phases = make([]float64, fieldHarmonics)
	for h := 0; h < fieldHarmonics; h++ {
		w := make([]float64, dim)
		norm := 0.0
		for d := range w {
			w[d] = r.Norm()
			norm += w[d] * w[d]
		}
		norm = math.Sqrt(norm)
		for d := range w {
			w[d] = w[d] / norm * m.HeteroFreq * float64(h+1)
		}
		s.weights[h] = w
		s.phases[h] = r.Float64() * 2 * math.Pi
	}
	return s, nil
}

// Field evaluates the heteroskedastic noise field at a configuration
// position (coordinates normalised to [0, 1]). The result is in [0, 1]
// and is smooth in x; values near 1 mark the "extreme noise" pockets
// Table 2 exhibits.
func (s *Sampler) Field(pos []float64) float64 {
	sum := 0.0
	for h := 0; h < fieldHarmonics; h++ {
		dot := s.phases[h]
		w := s.weights[h]
		for d := 0; d < len(pos) && d < len(w); d++ {
			dot += w[d] * pos[d] * math.Pi
		}
		sum += math.Sin(dot) / float64(h+1)
	}
	// sum is in roughly [-1.83, 1.83]; squash to [0, 1] and sharpen so
	// high-noise pockets are localised.
	v := (sum/1.8333 + 1) / 2
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return v * v * v
}

// Sigma returns the effective relative noise level (combined Gaussian
// components) at the given position.
func (s *Sampler) Sigma(pos []float64) float64 {
	amp := 1 + s.model.HeteroAmp*s.Field(pos)
	base := math.Sqrt(s.model.BaseRel*s.model.BaseRel + s.model.LayoutRel*s.model.LayoutRel)
	return base * amp
}

// Sample returns one noisy observation of a run with true mean runtime
// mu at configuration position pos (normalised coordinates). obsIdx
// distinguishes repeated observations of the same configuration; the
// AR(1) drift correlates observations with nearby indices.
func (s *Sampler) Sample(mu float64, pos []float64, cfgKey uint64, obsIdx int) float64 {
	if mu <= 0 {
		return mu
	}
	// Both streams live on the stack: Sample runs once per
	// observation.
	var r, dr rng.Stream
	r.Reset(s.seed^cfgKey, uint64(obsIdx)+0x9e37)
	amp := 1 + s.model.HeteroAmp*s.Field(pos)

	// Per-run layout offset and baseline jitter, both scaled by the
	// heteroskedastic field.
	eps := r.Norm()*s.model.BaseRel*amp + r.Norm()*s.model.LayoutRel*amp

	// AR(1) drift: reconstruct the drift at obsIdx from the config's
	// drift stream so that sampling stays order-independent. The
	// stationary process is unrolled from index 0.
	if s.model.DriftRel > 0 && s.model.DriftRho > 0 {
		dr.Reset(s.seed^cfgKey, 0xd21f7)
		sd := s.model.DriftRel * math.Sqrt(1-s.model.DriftRho*s.model.DriftRho)
		drift := dr.Norm() * s.model.DriftRel
		for i := 1; i <= obsIdx; i++ {
			drift = s.model.DriftRho*drift + dr.Norm()*sd
		}
		eps += drift
	}

	// One-sided interference spikes.
	mult := 1.0
	if r.Bool(s.model.SpikeProb) {
		mult += r.LogNormal(-1, s.model.SpikeRel)
	}

	out := mu * (1 + eps) * mult
	if out < mu*0.05 {
		out = mu * 0.05 // runs cannot be arbitrarily fast
	}
	return out
}

// Model returns the sampler's noise model.
func (s *Sampler) Model() Model { return s.model }
