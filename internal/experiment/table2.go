package experiment

import (
	"fmt"

	"alic/internal/dataset"
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
// kernels (nil means the whole suite). It uses the same datasets the
// learning experiments run on.
func Table2(kernels []*spapt.Kernel, s Settings, progress func(string)) (*Table2Result, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if kernels == nil {
		kernels = spapt.Kernels()
	}
	res := &Table2Result{NConfigs: s.PoolConfigs + s.TestConfigs, NObs: s.NObs}
	for _, k := range kernels {
		if progress != nil {
			progress(fmt.Sprintf("table2: %s", k.Name))
		}
		ds, err := buildDataset(k, s)
		if err != nil {
			return nil, err
		}
		ci35, err := ds.CIOverMeanSummary(min(35, s.NObs), 0.95)
		if err != nil {
			return nil, err
		}
		ci5, err := ds.CIOverMeanSummary(5, 0.95)
		if err != nil {
			return nil, err
		}
		vs, err := ds.VarianceSummary()
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table2Row{
			Benchmark: k.Name,
			Variance:  vs,
			CI35:      ci35,
			CI5:       ci5,
		})
	}
	return res, nil
}

// FailureRates reproduces the §4.3 observation: the fraction of
// configurations whose CI/mean ratio exceeds the given threshold at a
// given sample size ("fully 5% of examples broke the threshold").
func FailureRates(ds *dataset.Dataset, nObs int, threshold, confidence float64) (float64, error) {
	if nObs < 2 {
		return 0, fmt.Errorf("experiment: FailureRates needs nObs >= 2")
	}
	fails := 0
	for i := range ds.Configs {
		var w stats.Welford
		for j := 0; j < nObs; j++ {
			y, err := ds.Observe(i, j)
			if err != nil {
				return 0, err
			}
			w.Add(y)
		}
		if stats.CIOverMean(w.Mean(), w.Stddev(), w.N(), confidence) > threshold {
			fails++
		}
	}
	return float64(fails) / float64(len(ds.Configs)), nil
}
