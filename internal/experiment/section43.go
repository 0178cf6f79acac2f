package experiment

import (
	"fmt"

	"alic/internal/space"
	"alic/internal/spapt"
	"alic/internal/stats"
)

// Section43Row holds the sampling-plan adequacy rates of §4.3 of the
// paper for one kernel: the fraction of configurations whose 95%
// CI/mean ratio breaches a threshold at a given sample size. The paper
// reports, across its benchmarks: 5% of examples break the 1%
// threshold at 35 observations; 0.5% break the 5% threshold at 35;
// 3.3% break 5% at 5 observations; 5% break 5% at 2 observations.
type Section43Row struct {
	Benchmark string
	// Fail1At35 is the fraction breaching CI/mean > 1% with 35 obs.
	Fail1At35 float64
	// Fail5At35 is the fraction breaching CI/mean > 5% with 35 obs.
	Fail5At35 float64
	// Fail5At5 is the fraction breaching CI/mean > 5% with 5 obs.
	Fail5At5 float64
	// Fail5At2 is the fraction breaching CI/mean > 5% with 2 obs.
	Fail5At2 float64
}

// Section43Result aggregates per-kernel rows and the suite-wide rates
// (configuration-weighted means, matching the paper's "across our
// benchmarks" framing).
type Section43Result struct {
	Rows  []Section43Row
	Suite Section43Row
}

// Section43 reproduces the §4.3 sampling-plan adequacy study for the
// given spaces (nil means the paper's suite).
func Section43(spaces []space.Space, s Settings, progress func(string)) (*Section43Result, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	spaces, err := orDefault(spaces, spapt.Names())
	if err != nil {
		return nil, err
	}
	res := &Section43Result{Suite: Section43Row{Benchmark: "suite"}}
	total := 0
	for _, sp := range spaces {
		if progress != nil {
			progress(fmt.Sprintf("section 4.3: %s", sp.Name()))
		}
		ds, err := buildDataset(sp, s)
		if err != nil {
			return nil, err
		}
		// ratios[k] holds every configuration's CI/mean ratio at the
		// k-th sample size; both 35-observation thresholds count one pass.
		var ratios [3][]float64
		for k, nObs := range []int{min(35, s.NObs), 5, 2} {
			if ratios[k], err = ds.CIOverMeans(nObs, 0.95); err != nil {
				return nil, err
			}
		}
		row := Section43Row{
			Benchmark: sp.Name(),
			Fail1At35: stats.FractionAbove(ratios[0], 0.01),
			Fail5At35: stats.FractionAbove(ratios[0], 0.05),
			Fail5At5:  stats.FractionAbove(ratios[1], 0.05),
			Fail5At2:  stats.FractionAbove(ratios[2], 0.05),
		}
		res.Rows = append(res.Rows, row)

		n := len(ds.Configs)
		res.Suite.Fail1At35 += row.Fail1At35 * float64(n)
		res.Suite.Fail5At35 += row.Fail5At35 * float64(n)
		res.Suite.Fail5At5 += row.Fail5At5 * float64(n)
		res.Suite.Fail5At2 += row.Fail5At2 * float64(n)
		total += n
	}
	if total > 0 {
		res.Suite.Fail1At35 /= float64(total)
		res.Suite.Fail5At35 /= float64(total)
		res.Suite.Fail5At5 /= float64(total)
		res.Suite.Fail5At2 /= float64(total)
	}
	return res, nil
}
