package experiment

import (
	"fmt"
	"math"

	"alic/internal/space"
	"alic/internal/spapt"
	"alic/internal/stats"
)

// Table1Row is one benchmark's line of Table 1: the lowest RMSE both
// approaches reach, the profiling cost each needs to first reach it,
// and the resulting speed-up.
type Table1Row struct {
	Benchmark        string
	SpaceSize        float64
	LowestCommonRMSE float64
	BaselineCost     float64 // seconds, fixed 35-observation plan
	OurCost          float64 // seconds, variable-observation plan
	Speedup          float64 // BaselineCost / OurCost
}

// Table1Result aggregates all rows plus the geometric-mean speed-up
// (the paper reports 3.97x).
type Table1Result struct {
	Rows           []Table1Row
	GeoMeanSpeedup float64
	// Curves keeps the per-kernel averaged curves so Figure 6 can be
	// rendered from the same run.
	Curves []*BenchmarkCurves
}

// LowestCommon computes the paper's §5.1 comparison between two
// averaged curves: the lowest error both reach, and the cost each
// needs to first reach it.
func LowestCommon(baseline, ours Curve) (level, baseCost, ourCost float64) {
	level = math.Max(baseline.MinError(), ours.MinError())
	return level, baseline.CostToReach(level), ours.CostToReach(level)
}

// Table1 runs the full comparison for the given spaces (nil means the
// paper's suite) and assembles the paper's Table 1.
func Table1(spaces []space.Space, s Settings, progress func(string)) (*Table1Result, error) {
	spaces, err := orDefault(spaces, spapt.Names())
	if err != nil {
		return nil, err
	}
	res := &Table1Result{}
	var speedups []float64
	for _, sp := range spaces {
		bc, err := RunCurves(sp, s, progress)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.Name(), err)
		}
		res.Curves = append(res.Curves, bc)
		baseline := bc.Curves[AllObservations]
		ours := bc.Curves[VariableObservations]
		level, baseCost, ourCost := LowestCommon(baseline, ours)
		row := Table1Row{
			Benchmark:        sp.Name(),
			SpaceSize:        sp.Size(),
			LowestCommonRMSE: level,
			BaselineCost:     baseCost,
			OurCost:          ourCost,
		}
		if ourCost > 0 && !math.IsInf(ourCost, 0) && !math.IsInf(baseCost, 0) {
			row.Speedup = baseCost / ourCost
		}
		res.Rows = append(res.Rows, row)
		if row.Speedup > 0 {
			speedups = append(speedups, row.Speedup)
		}
	}
	if len(speedups) > 0 {
		gm, err := stats.GeometricMean(speedups)
		if err != nil {
			return nil, err
		}
		res.GeoMeanSpeedup = gm
	}
	return res, nil
}
