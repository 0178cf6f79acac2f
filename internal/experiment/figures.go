package experiment

import (
	"fmt"
	"math"

	"alic/internal/space"
	"alic/internal/stats"
)

// Figure1Result reproduces Figure 1 of the paper: over the mm kernel's
// i x j unroll plane, the MAE incurred with a single observation, the
// MAE with the per-point optimal sample count, and that count itself.
type Figure1Result struct {
	// Factors are the unroll factors swept on both axes.
	Factors []int
	// MAE1[i][j] is the mean absolute error of single observations
	// against the 35-observation mean.
	MAE1 [][]float64
	// MAEOpt[i][j] is the error of the mean of the optimal sample
	// count against the 35-observation mean.
	MAEOpt [][]float64
	// Counts[i][j] is the optimal (smallest adequate) sample count.
	Counts [][]int
	// FixedRuns and AdaptiveRuns compare total executions: the paper
	// reports 31,500 vs 15,131.
	FixedRuns, AdaptiveRuns int
	// Threshold is the MAE target in seconds (paper: 0.1 ms).
	Threshold float64
}

// Figure1 sweeps the mm unroll plane. maxFactor bounds the grid
// (paper: 30); nObs is the full sampling plan (paper: 35).
func Figure1(maxFactor, nObs int, threshold float64, seed uint64) (*Figure1Result, error) {
	if maxFactor < 2 || nObs < 2 || threshold <= 0 {
		return nil, fmt.Errorf("experiment: bad Figure 1 parameters")
	}
	sp, err := space.ByName("mm")
	if err != nil {
		return nil, err
	}
	iIdx, err := paramIndex(sp, "U_i")
	if err != nil {
		return nil, err
	}
	jIdx, err := paramIndex(sp, "U_j")
	if err != nil {
		return nil, err
	}
	meas, err := sp.Measurer(seed)
	if err != nil {
		return nil, err
	}

	res := &Figure1Result{Threshold: threshold}
	for f := 1; f <= maxFactor; f++ {
		res.Factors = append(res.Factors, f)
	}
	n := len(res.Factors)
	res.MAE1 = make([][]float64, n)
	res.MAEOpt = make([][]float64, n)
	res.Counts = make([][]int, n)

	for a := 0; a < n; a++ {
		res.MAE1[a] = make([]float64, n)
		res.MAEOpt[a] = make([]float64, n)
		res.Counts[a] = make([]int, n)
		for b := 0; b < n; b++ {
			cfg := sp.BaselineConfig()
			cfg[iIdx] = res.Factors[a]
			cfg[jIdx] = res.Factors[b]
			ys := make([]float64, nObs)
			var w stats.Welford
			for o := range ys {
				if ys[o], err = meas.Observe(cfg, o); err != nil {
					return nil, err
				}
				w.Add(ys[o])
			}
			mean := w.Mean()

			// MAE of single observations vs the full mean.
			mae1 := 0.0
			for _, y := range ys {
				mae1 += math.Abs(y - mean)
			}
			res.MAE1[a][b] = mae1 / float64(nObs)

			// Smallest prefix whose mean stays within the threshold; pw
			// ends holding exactly that prefix.
			count := nObs
			var pw stats.Welford
			for o := 0; o < nObs; o++ {
				pw.Add(ys[o])
				if math.Abs(pw.Mean()-mean) <= threshold {
					count = o + 1
					break
				}
			}
			res.Counts[a][b] = count
			res.MAEOpt[a][b] = math.Abs(pw.Mean() - mean)

			res.FixedRuns += nObs
			res.AdaptiveRuns += count
		}
	}
	return res, nil
}

// Figure2Result reproduces Figure 2: single-observation runtime against
// the unroll factor of one adi loop, exposing the plateau-climb-plateau
// structure despite the noise.
type Figure2Result struct {
	Factors  []int
	Observed []float64 // one noisy observation per factor
	TrueMean []float64 // the underlying noise-free runtimes
}

// Figure2 sweeps the unroll factor of adi's first sweep loop.
func Figure2(maxFactor int, seed uint64) (*Figure2Result, error) {
	if maxFactor < 2 {
		return nil, fmt.Errorf("experiment: bad Figure 2 parameter")
	}
	sp, err := space.ByName("adi")
	if err != nil {
		return nil, err
	}
	uIdx, err := paramIndex(sp, "U_R_i")
	if err != nil {
		return nil, err
	}
	meas, err := sp.Measurer(seed)
	if err != nil {
		return nil, err
	}
	res := &Figure2Result{}
	for f := 1; f <= maxFactor; f++ {
		cfg := sp.BaselineConfig()
		cfg[uIdx] = f
		mu, err := meas.TrueMean(cfg)
		if err != nil {
			return nil, err
		}
		y, err := meas.Observe(cfg, 0)
		if err != nil {
			return nil, err
		}
		res.Factors = append(res.Factors, f)
		res.TrueMean = append(res.TrueMean, mu)
		res.Observed = append(res.Observed, y)
	}
	return res, nil
}

// paramIndex returns the position of the named parameter in sp.Params().
func paramIndex(sp space.Space, name string) (int, error) {
	for i, p := range sp.Params() {
		if p.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("experiment: %s lacks parameter %s", sp.Name(), name)
}

// Figure6Kernels lists the six benchmarks the paper plots in Figure 6.
func Figure6Kernels() []string {
	return []string{"adi", "atax", "correlation", "gemver", "jacobi", "mvt"}
}

// Figure6 runs the three sampling plans on the requested spaces (nil
// means the paper's six) and returns the averaged curves.
func Figure6(spaces []space.Space, s Settings, progress func(string)) ([]*BenchmarkCurves, error) {
	spaces, err := orDefault(spaces, Figure6Kernels())
	if err != nil {
		return nil, err
	}
	var out []*BenchmarkCurves
	for _, sp := range spaces {
		bc, err := RunCurves(sp, s, progress)
		if err != nil {
			return nil, err
		}
		out = append(out, bc)
	}
	return out, nil
}
