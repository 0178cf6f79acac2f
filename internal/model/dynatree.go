package model

import (
	"fmt"

	"alic/internal/dynatree"
)

// The forest natively implements the learner's model contract; the
// assertions pin that so a drift in either API fails to compile.
var (
	_ Model        = (*dynatree.Forest)(nil)
	_ Importancer  = (*dynatree.Forest)(nil)
	_ PoolBinder   = (*dynatree.Forest)(nil)
	_ RoundUpdater = (*dynatree.Forest)(nil)
)

// DynatreeBuilder builds the paper's particle-filtered dynamic-tree
// backend. The zero value uses dynatree.DefaultConfig.
type DynatreeBuilder struct {
	// Config parameterises the forest. An entirely zero Config selects
	// dynatree.DefaultConfig (the learner substitutes its Options.Tree
	// first); a partially-filled one is passed through so
	// misconfiguration still fails loudly.
	Config dynatree.Config
}

// Name returns "dynatree".
func (DynatreeBuilder) Name() string { return "dynatree" }

// New calibrates the NIG prior on the seed targets (empirical Bayes)
// and constructs the forest.
func (b DynatreeBuilder) New(p Params) (Model, error) {
	if p.RNG == nil {
		return nil, fmt.Errorf("model: dynatree backend needs an RNG stream")
	}
	cfg := b.Config
	if cfg == (dynatree.Config{}) {
		cfg = dynatree.DefaultConfig()
	}
	cfg.CalibratePrior(p.SeedTargets)
	return dynatree.New(cfg, p.Dim, p.RNG)
}
