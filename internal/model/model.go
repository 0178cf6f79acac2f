// Package model defines the pluggable regression-backend API of the
// active learner. Section 3.2 of the paper frames the model choice as
// open — any incrementally-updatable regressor with calibrated
// predictive uncertainty fits Algorithm 1 — and this package encodes
// that contract as the Model interface, together with a name registry
// of backends.
//
// One backend ships with the library: "dynatree", the particle-filtered
// dynamic-tree forest of internal/dynatree, the paper's choice (O(1)
// incremental updates, where §3.2 rejects Gaussian processes for their
// O(n^3) refits).
//
// Custom backends implement Builder and register with Register; the
// learner then selects them by name. Only Model is required; the
// extensions below are optional.
package model

import (
	"reflect"

	"alic/internal/rng"
)

// Predictor yields posterior-mean runtime predictions. It is the
// minimal surface consumers such as the tuner need.
type Predictor interface {
	// PredictMeanFast returns a cheap posterior-mean estimate at x.
	PredictMeanFast(x []float64) float64
	// PredictMeanFastBatch returns cheap posterior-mean estimates for
	// every row of xs.
	PredictMeanFastBatch(xs [][]float64) []float64
}

// Model is the uncertainty-aware regressor Algorithm 1 requires: it
// absorbs observations one at a time and exposes the batched
// mean+variance predictions and acquisition hooks (ALM, ALC) the
// learner's scoring loop is built on.
//
// Batched entry points must be deterministic: given the same model
// state and inputs they return bit-identical results regardless of any
// internal parallelism.
type Model interface {
	Predictor
	// Update absorbs one observation (x, y).
	Update(x []float64, y float64)
	// PredictBatch returns the posterior mean and variance for every
	// row of xs.
	PredictBatch(xs [][]float64) (means, variances []float64)
	// ALMBatch returns MacKay's active-learning score — the predictive
	// variance — for every row of xs. Higher is more informative.
	ALMBatch(xs [][]float64) []float64
	// ALCScores returns Cohn's active-learning score for every
	// candidate: the expected average predictive variance over refs
	// after hypothetically observing the candidate. Lower is more
	// informative.
	ALCScores(cands, refs [][]float64) []float64
	// N returns the number of absorbed observations.
	N() int
}

// PoolBinder is an optional Model extension for backends that can
// bind the learner's candidate pool. The learner binds the pool's
// feature rows once at seeding time; afterwards the scoring loop
// addresses candidates by stable pool index instead of gathering row
// slices. The dynatree backend gathers the bound rows internally and
// calls its row-based entry points.
//
// Contract: for the same model state, every *Indexed entry point must
// return results bit-identical to its row-based counterpart called on
// the bound rows — never an approximation. Bound rows are retained by
// the backend and must stay unchanged while bound.
type PoolBinder interface {
	// BindPool interns the pool's feature rows; rows[i] backs pool
	// index i in the *Indexed calls. Binding replaces any previous
	// pool; an empty slice unbinds.
	BindPool(rows [][]float64)
	// ALMIndexed is ALMBatch over bound rows.
	ALMIndexed(ids []int) []float64
	// ALCIndexed is ALCScores over bound rows.
	ALCIndexed(cands, refs []int) []float64
	// PredictMeanFastIndexed is PredictMeanFastBatch over bound rows.
	PredictMeanFastIndexed(ids []int) []float64
}

// RoundUpdater is an optional Model extension for backends with a
// batched per-round update path. UpdateRound absorbs one acquisition
// round's observations in order, and must leave the model in exactly
// the state the per-observation loop would — bit-identical, including
// any internal randomness consumption — so the learner may use either
// path freely. When preds is non-nil it must have len(xs), and
// preds[k] receives the backend's PredictMeanFast estimate at xs[k]
// in the state just before (xs[k], ys[k]) is absorbed (the value the
// learner's error tracking would have computed with a separate call),
// letting backends fuse the prediction into work the update already
// does. Targets are validated batch-wide before any state changes.
type RoundUpdater interface {
	UpdateRound(xs [][]float64, ys []float64, preds []float64)
}

// UpdateRound absorbs one round of observations into m in order. It
// takes the backend's RoundUpdater path when m has one; otherwise it
// runs the per-observation loop that path must match: for each k,
// preds[k] = m.PredictMeanFast(xs[k]) (when preds is non-nil), then
// m.Update(xs[k], ys[k]). preds has the RoundUpdater contract: nil or
// len(xs).
func UpdateRound(m Model, xs [][]float64, ys, preds []float64) {
	if ru, ok := m.(RoundUpdater); ok {
		ru.UpdateRound(xs, ys, preds)
		return
	}
	for k, x := range xs {
		if preds != nil {
			preds[k] = m.PredictMeanFast(x)
		}
		m.Update(x, ys[k])
	}
}

// Importancer is an optional interface for backends that can attribute
// predictive relevance to input dimensions.
type Importancer interface {
	// Importance returns a per-dimension relevance score summing to 1.
	Importance(dim int) []float64
}

// Params carries everything a Builder receives at seeding time, after
// the learner has taken its initial observations.
type Params struct {
	// Dim is the feature-vector dimensionality.
	Dim int
	// SeedTargets are the observations gathered during seeding, for
	// empirical-Bayes prior calibration.
	SeedTargets []float64
	// RNG is the backend's private deterministic randomness stream.
	RNG *rng.Stream
}

// Builder constructs a Model. Implementations are value-like configs;
// the same Builder may build models for many concurrent learners.
type Builder interface {
	// Name identifies the backend in the registry and in reports.
	Name() string
	// New builds a fresh model for one learning run.
	New(p Params) (Model, error)
}

// IsNil reports whether p is nil or a typed-nil pointer wrapped in the
// interface (e.g. a nil *dynatree.Forest), which passes a plain nil
// check and panics on first method call.
func IsNil(p Predictor) bool {
	if p == nil {
		return true
	}
	v := reflect.ValueOf(p)
	return v.Kind() == reflect.Pointer && v.IsNil()
}
