package model

import (
	"alic/internal/dynatree"
)

// Snapshotter is an optional Model extension for backends that can
// serialize their complete state. The contract is the library-wide
// determinism bar: a model restored from Snapshot must produce
// byte-identical predictions, scores and updates to the original.
// Snapshot only reads the model, and its bytes depend only on the live
// state — for the dynatree forest, the live particle trees in
// canonical order, never the dead path copies its arena still holds —
// so two models in the same state encode alike.
type Snapshotter interface {
	Snapshot() []byte
}

// Restorer is an optional Builder extension for backends whose models
// can be reconstructed from a Snapshot payload. Params carries what
// New receives; state is the payload a Snapshotter produced. Restore
// never consults SeedTargets: any empirical-Bayes calibration is
// already resolved inside the payload.
type Restorer interface {
	Restore(p Params, state []byte) (Model, error)
}

// The dynatree forest serializes natively.
var _ Snapshotter = (*dynatree.Forest)(nil)
var _ Restorer = DynatreeBuilder{}

// Restore reconstructs a forest from a Snapshot payload.
func (b DynatreeBuilder) Restore(_ Params, state []byte) (Model, error) {
	f, err := dynatree.Restore(state)
	if err != nil {
		return nil, err
	}
	return f, nil
}
