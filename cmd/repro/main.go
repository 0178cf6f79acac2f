// Command repro regenerates every table and figure of the paper's
// evaluation section. Each experiment prints its result as an aligned
// text table or ASCII plot and, when -outdir is set, writes CSV files
// suitable for external plotting.
//
// Usage:
//
//	repro -experiment all                 # everything, fast settings
//	repro -experiment table1 -kernels mm,lu
//	repro -experiment table1 -kernels synthetic/needle
//	repro -experiment fig6 -full          # paper-scale (hours of CPU)
//	repro -experiment table1 -reps 5 -nmax 600 -particles 1000
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"alic/internal/experiment"
	"alic/internal/report"
	"alic/internal/space"
	_ "alic/internal/space/execspace"
	_ "alic/internal/space/spaptspace"
	_ "alic/internal/space/synthetic"
)

func main() {
	var (
		exp       = flag.String("experiment", "all", "table1|table2|sec43|fig1|fig2|fig5|fig6|all")
		kernels   = flag.String("kernels", "", "comma-separated registered space names (default: experiment's own)")
		full      = flag.Bool("full", false, "paper-scale settings (§4.4/§4.5; hours of CPU)")
		reps      = flag.Int("reps", 0, "override repetition count")
		nmax      = flag.Int("nmax", 0, "override acquisition budget")
		particles = flag.Int("particles", 0, "override dynamic-tree particle count")
		seed      = flag.Uint64("seed", 0, "override base seed")
		outdir    = flag.String("outdir", "", "directory for CSV output (optional)")
		quiet     = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	settings := experiment.FastSettings()
	if *full {
		settings = experiment.PaperSettings()
	}
	if *reps > 0 {
		settings.Reps = *reps
	}
	if *nmax > 0 {
		settings.NMax = *nmax
	}
	if *particles > 0 {
		settings.Particles = *particles
		settings.ScoreParticles = *particles / 6
		if settings.ScoreParticles < 20 {
			settings.ScoreParticles = 20
		}
	}
	if *seed > 0 {
		settings.Seed = *seed
	}

	progress := func(msg string) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "  %s\n", msg)
		}
	}

	ks, err := selectKernels(*kernels)
	if err != nil {
		fatal(err)
	}

	run := func(name string, fn func() error) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "== %s ==\n", name)
		}
		if err := fn(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
	}

	switch *exp {
	case "table1":
		run("table1", func() error { return runTable1(ks, settings, progress, *outdir, true) })
	case "fig5":
		run("fig5", func() error { return runTable1(ks, settings, progress, *outdir, true) })
	case "table2":
		run("table2", func() error { return runTable2(ks, settings, progress, *outdir) })
	case "sec43":
		run("sec43", func() error { return runSection43(ks, settings, progress, *outdir) })
	case "fig1":
		run("fig1", func() error { return runFigure1(settings, *outdir) })
	case "fig2":
		run("fig2", func() error { return runFigure2(settings, *outdir) })
	case "fig6":
		run("fig6", func() error { return runFigure6(ks, settings, progress, *outdir) })
	case "all":
		run("table2", func() error { return runTable2(ks, settings, progress, *outdir) })
		run("sec43", func() error { return runSection43(ks, settings, progress, *outdir) })
		run("fig1", func() error { return runFigure1(settings, *outdir) })
		run("fig2", func() error { return runFigure2(settings, *outdir) })
		run("table1+fig5", func() error { return runTable1(ks, settings, progress, *outdir, true) })
		run("fig6", func() error { return runFigure6(ks, settings, progress, *outdir) })
	default:
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repro:", err)
	os.Exit(1)
}

// selectKernels resolves -kernels through the space registry; a live
// space resolves, then fails in corpus generation with ErrLiveSpace.
func selectKernels(list string) ([]space.Space, error) {
	if list == "" {
		return nil, nil // experiment default
	}
	var spaces []space.Space
	for _, name := range strings.Split(list, ",") {
		sp, err := space.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		spaces = append(spaces, sp)
	}
	return spaces, nil
}

func writeCSV(outdir, name string, tab *report.Table) error {
	if outdir == "" {
		return nil
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outdir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return tab.CSV(f)
}

func runTable1(ks []space.Space, s experiment.Settings, progress func(string), outdir string, withFig5 bool) error {
	res, err := experiment.Table1(ks, s, progress)
	if err != nil {
		return err
	}
	tab := report.NewTable(
		"Table 1: lowest common RMS error, profiling cost to reach it, speed-up",
		"benchmark", "search space", "lowest common RMSE (s)",
		"baseline cost (s)", "our cost (s)", "speed-up")
	for _, row := range res.Rows {
		tab.AddRow(row.Benchmark, row.SpaceSize, row.LowestCommonRMSE,
			row.BaselineCost, row.OurCost, row.Speedup)
	}
	tab.AddStringRow("geometric mean", "", "", "", "",
		report.FormatFloat(res.GeoMeanSpeedup))
	if err := tab.Render(os.Stdout); err != nil {
		return err
	}
	if err := writeCSV(outdir, "table1.csv", tab); err != nil {
		return err
	}
	if withFig5 {
		labels := make([]string, len(res.Rows))
		values := make([]float64, len(res.Rows))
		for i, row := range res.Rows {
			labels[i] = row.Benchmark
			values[i] = row.Speedup
		}
		fmt.Println()
		if err := report.Bars(os.Stdout,
			"Figure 5: reduction of profiling cost vs 35-observation baseline",
			labels, values, 50); err != nil {
			return err
		}
	}
	return nil
}

func runTable2(ks []space.Space, s experiment.Settings, progress func(string), outdir string) error {
	res, err := experiment.Table2(ks, s, progress)
	if err != nil {
		return err
	}
	tab := report.NewTable(
		fmt.Sprintf("Table 2: runtime variance and 95%% CI/mean spreads (%d configs, %d obs)",
			res.NConfigs, res.NObs),
		"benchmark",
		"var min", "var mean", "var max",
		"CI35/mean min", "CI35/mean mean", "CI35/mean max",
		"CI5/mean min", "CI5/mean mean", "CI5/mean max")
	for _, row := range res.Rows {
		tab.AddRow(row.Benchmark,
			row.Variance.Min, row.Variance.Mean, row.Variance.Max,
			row.CI35.Min, row.CI35.Mean, row.CI35.Max,
			row.CI5.Min, row.CI5.Mean, row.CI5.Max)
	}
	if err := tab.Render(os.Stdout); err != nil {
		return err
	}
	return writeCSV(outdir, "table2.csv", tab)
}

func runSection43(ks []space.Space, s experiment.Settings, progress func(string), outdir string) error {
	res, err := experiment.Section43(ks, s, progress)
	if err != nil {
		return err
	}
	tab := report.NewTable(
		"Section 4.3: fraction of configurations whose 95% CI/mean breaches a threshold",
		"benchmark", "1% @ 35 obs", "5% @ 35 obs", "5% @ 5 obs", "5% @ 2 obs")
	for _, row := range res.Rows {
		tab.AddRow(row.Benchmark, row.Fail1At35, row.Fail5At35, row.Fail5At5, row.Fail5At2)
	}
	tab.AddRow(res.Suite.Benchmark, res.Suite.Fail1At35, res.Suite.Fail5At35,
		res.Suite.Fail5At5, res.Suite.Fail5At2)
	if err := tab.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println("paper reports (suite-wide): 5% fail 1%@35, 0.5% fail 5%@35, 3.3% fail 5%@5, 5% fail 5%@2")
	return writeCSV(outdir, "sec43.csv", tab)
}

func runFigure1(s experiment.Settings, outdir string) error {
	res, err := experiment.Figure1(30, s.NObs, 1e-4, s.Seed)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 1: mm unroll plane (%dx%d points, %d obs each, threshold %s s)\n",
		len(res.Factors), len(res.Factors), s.NObs, report.FormatFloat(res.Threshold))
	if err := report.HeatMap(os.Stdout, "(a) MAE with a single observation", res.MAE1); err != nil {
		return err
	}
	if err := report.HeatMap(os.Stdout, "(b) MAE with optimal samples", res.MAEOpt); err != nil {
		return err
	}
	counts := make([][]float64, len(res.Counts))
	for i, row := range res.Counts {
		counts[i] = make([]float64, len(row))
		for j, c := range row {
			counts[i][j] = float64(c)
		}
	}
	if err := report.HeatMap(os.Stdout, "(c) optimal number of samples", counts); err != nil {
		return err
	}
	fmt.Printf("total runs: fixed plan %d, per-point optimal %d (%.1f%%)\n",
		res.FixedRuns, res.AdaptiveRuns,
		100*float64(res.AdaptiveRuns)/float64(res.FixedRuns))

	tab := report.NewTable("", "i_factor", "j_factor", "mae1", "maeopt", "count")
	for a := range res.Factors {
		for b := range res.Factors {
			tab.AddRow(res.Factors[a], res.Factors[b],
				res.MAE1[a][b], res.MAEOpt[a][b], res.Counts[a][b])
		}
	}
	return writeCSV(outdir, "fig1.csv", tab)
}

func runFigure2(s experiment.Settings, outdir string) error {
	res, err := experiment.Figure2(30, s.Seed)
	if err != nil {
		return err
	}
	xs := make([]float64, len(res.Factors))
	for i, f := range res.Factors {
		xs[i] = float64(f)
	}
	if err := report.Plot(os.Stdout,
		"Figure 2: adi runtime vs i1 unroll factor (single observations)",
		"unroll factor", "runtime (s)",
		[]report.Series{
			{Name: "observed", X: xs, Y: res.Observed},
			{Name: "true mean", X: xs, Y: res.TrueMean},
		}, 60, 16); err != nil {
		return err
	}
	tab := report.NewTable("", "factor", "observed_s", "true_mean_s")
	for i := range res.Factors {
		tab.AddRow(res.Factors[i], res.Observed[i], res.TrueMean[i])
	}
	return writeCSV(outdir, "fig2.csv", tab)
}

func runFigure6(ks []space.Space, s experiment.Settings, progress func(string), outdir string) error {
	curves, err := experiment.Figure6(ks, s, progress)
	if err != nil {
		return err
	}
	for _, bc := range curves {
		var series []report.Series
		tab := report.NewTable("", "strategy", "cost_s", "rmse_s")
		for _, strat := range experiment.Strategies() {
			c := bc.Curves[strat]
			series = append(series, report.Series{Name: strat.String(), X: c.Cost, Y: c.Error})
			for i := range c.Cost {
				tab.AddRow(strat.String(), c.Cost[i], c.Error[i])
			}
		}
		if err := report.Plot(os.Stdout,
			fmt.Sprintf("Figure 6: RMSE vs evaluation time — %s", bc.Space.Name()),
			"cumulative cost (s)", "RMSE (s)", series, 64, 16); err != nil {
			return err
		}
		fmt.Println()
		if err := writeCSV(outdir, fmt.Sprintf("fig6_%s.csv", bc.Space.Name()), tab); err != nil {
			return err
		}
	}
	return nil
}
