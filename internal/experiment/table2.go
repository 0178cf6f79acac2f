package experiment

import (
	"fmt"

	"alic/internal/space"
	"alic/internal/spapt"
	"alic/internal/stats"
)

// Table2Row reproduces one line of the paper's Table 2: the spread of
// per-configuration runtime variance across the space, and of the 95%
// confidence-interval/mean ratio for 35-sample and 5-sample plans.
type Table2Row struct {
	Benchmark string
	Variance  stats.Summary
	CI35      stats.Summary
	CI5       stats.Summary
}

// Table2Result holds all rows.
type Table2Result struct {
	Rows []Table2Row
	// NConfigs and NObs record the corpus the summaries come from.
	NConfigs, NObs int
}

// Table2 generates the noise-characterisation table for the given
// spaces (nil means the paper's suite). It uses the same datasets the
// learning experiments run on.
func Table2(spaces []space.Space, s Settings, progress func(string)) (*Table2Result, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	spaces, err := orDefault(spaces, spapt.Names())
	if err != nil {
		return nil, err
	}
	res := &Table2Result{NConfigs: s.PoolConfigs + s.TestConfigs, NObs: s.NObs}
	for _, sp := range spaces {
		if progress != nil {
			progress(fmt.Sprintf("table2: %s", sp.Name()))
		}
		ds, err := buildDataset(sp, s)
		if err != nil {
			return nil, err
		}
		ci35, err := ds.CIOverMeans(min(35, s.NObs), 0.95)
		if err != nil {
			return nil, err
		}
		ci5, err := ds.CIOverMeans(5, 0.95)
		if err != nil {
			return nil, err
		}
		vs, err := ds.VarianceSummary()
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table2Row{
			Benchmark: sp.Name(),
			Variance:  vs,
			CI35:      stats.Summarize(ci35),
			CI5:       stats.Summarize(ci5),
		})
	}
	return res, nil
}
