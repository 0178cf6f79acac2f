package core

import (
	"errors"

	"alic/internal/model"
	"alic/internal/registry"
)

// Rand is the slice of the learner's deterministic randomness handed to
// acquisitions. Implementations must not retain it across calls.
type Rand interface {
	// Intn returns a uniform value in [0, n).
	Intn(n int) int
	// Perm returns a pseudo-random permutation of [0, n).
	Perm(n int) []int
	// Float64 returns a uniform value in [0, 1).
	Float64() float64
}

// Acquisition is the heuristic of §3.3: it ranks the candidate set and
// picks the batch to observe next. Implementations must be stateless
// (or internally synchronised) — one value may serve many learners —
// and must draw randomness only from r so runs stay reproducible.
type Acquisition interface {
	// Name identifies the heuristic in the registry and in reports.
	Name() string
	// Select returns between 1 and batch positions into feats, most
	// valuable first (feats is never empty and batch never exceeds
	// len(feats)). Positions must be unique and within range; an empty
	// return is a contract violation the learner reports as an error.
	Select(m model.Model, feats [][]float64, batch int, r Rand) ([]int, error)
}

// IndexedAcquisition is an optional Acquisition extension. When the
// learner's backend has interned the candidate pool (model.PoolBinder)
// the learner hands the heuristic stable pool indices instead of
// gathered feature rows. Returned positions index ids exactly as Select's
// positions index feats, and implementations must make bit-identical
// selections through both entry points — SelectIndexed is another
// way to address candidates, never a different heuristic. Acquisitions that do not
// implement it keep receiving gathered rows via Select.
type IndexedAcquisition interface {
	// SelectIndexed is Select with candidates addressed as pool
	// indices into pb's bound rows.
	SelectIndexed(m model.Model, pb model.PoolBinder, ids []int, batch int, r Rand) ([]int, error)
}

// Built-in acquisitions. The values double as registry entries and as
// ready-to-use Options.Scorer settings.
var (
	// ALC is Cohn's heuristic: choose the candidate minimising the
	// expected average predictive variance over the candidate set.
	// O(|C|^2) but robust to heteroskedasticity — the paper's choice.
	ALC Acquisition = alcAcquisition{}
	// ALM is MacKay's heuristic: choose the candidate with maximum
	// predictive variance. O(|C|).
	ALM Acquisition = almAcquisition{}
	// RandomScore disables active learning: candidates are chosen
	// uniformly (the passive baseline of prior work).
	RandomScore Acquisition = randomAcquisition{}
)

type alcAcquisition struct{}

func (alcAcquisition) Name() string { return "alc" }

func (alcAcquisition) Select(m model.Model, feats [][]float64, batch int, _ Rand) ([]int, error) {
	// predictAvgModelVariance of Algorithm 1: reference set = the
	// candidate set itself; pick the minimum expected variance.
	return PickBest(m.ALCScores(feats, feats), batch, true), nil
}

func (alcAcquisition) SelectIndexed(_ model.Model, pb model.PoolBinder, ids []int, batch int, _ Rand) ([]int, error) {
	return PickBest(pb.ALCIndexed(ids, ids), batch, true), nil
}

type almAcquisition struct{}

func (almAcquisition) Name() string { return "alm" }

func (almAcquisition) Select(m model.Model, feats [][]float64, batch int, _ Rand) ([]int, error) {
	// Highest predictive variance first.
	return PickBest(m.ALMBatch(feats), batch, false), nil
}

func (almAcquisition) SelectIndexed(_ model.Model, pb model.PoolBinder, ids []int, batch int, _ Rand) ([]int, error) {
	return PickBest(pb.ALMIndexed(ids), batch, false), nil
}

type randomAcquisition struct{}

func (randomAcquisition) Name() string { return "random" }

func (randomAcquisition) Select(_ model.Model, feats [][]float64, batch int, r Rand) ([]int, error) {
	if batch > len(feats) {
		batch = len(feats)
	}
	return r.Perm(len(feats))[:batch], nil
}

func (randomAcquisition) SelectIndexed(_ model.Model, _ model.PoolBinder, ids []int, batch int, r Rand) ([]int, error) {
	// No scoring at all — the indexed path just skips the row gather.
	if batch > len(ids) {
		batch = len(ids)
	}
	return r.Perm(len(ids))[:batch], nil
}

// PickBest returns the positions of the batch lowest (minimise) or
// highest scores, best first — the ranking helper shared by the
// built-in acquisitions and available to custom ones. Tied scores
// resolve by a partial selection sort's swap order (not necessarily
// the earlier position), but always deterministically for a given
// input, which is what reproducibility requires.
//
// The sort permutes positions only virtually: positions below batch
// live in the result, each later position a swap wrote is recorded in
// moved, and every other position still holds its own index. So the
// one allocation is the result.
func PickBest(scores []float64, batch int, minimise bool) []int {
	if batch <= 0 {
		return nil
	}
	if batch > len(scores) {
		batch = len(scores)
	}
	out := make([]int, batch)
	for i := range out {
		out[i] = i
	}
	type movedPos struct{ pos, idx int }
	var buf [8]movedPos
	moved := buf[:0]
	for i := 0; i < batch; i++ {
		best, bestPos := out[i], i
		for pos := i + 1; pos < len(scores); pos++ {
			idx := pos
			if pos < batch {
				idx = out[pos]
			} else {
				for _, m := range moved {
					if m.pos == pos {
						idx = m.idx
					}
				}
			}
			if minimise && scores[idx] < scores[best] || !minimise && scores[idx] > scores[best] {
				best, bestPos = idx, pos
			}
		}
		// Swap positions i and bestPos. A later entry of moved shadows
		// an earlier one for the same position.
		if bestPos < batch {
			out[bestPos] = out[i]
		} else {
			moved = append(moved, movedPos{bestPos, out[i]})
		}
		out[i] = best
	}
	return out
}

// ErrUnknownAcquisition reports an acquisition name with no
// registration.
var ErrUnknownAcquisition = errors.New("unknown acquisition")

var acqReg = registry.New[Acquisition]("core", ErrUnknownAcquisition)

// RegisterAcquisition makes an acquisition selectable by name,
// replacing any existing registration under the same name. It panics on
// a nil value or empty name.
func RegisterAcquisition(a Acquisition) {
	if a == nil {
		panic("core: RegisterAcquisition with nil value")
	}
	acqReg.Register(a.Name(), a)
}

// AcquisitionByName returns the registered acquisition, or an error
// wrapping ErrUnknownAcquisition.
func AcquisitionByName(name string) (Acquisition, error) { return acqReg.Lookup(name) }

// AcquisitionNames lists the registered acquisitions in sorted order.
func AcquisitionNames() []string { return acqReg.Names() }

func init() {
	RegisterAcquisition(ALC)
	RegisterAcquisition(ALM)
	RegisterAcquisition(RandomScore)
}
