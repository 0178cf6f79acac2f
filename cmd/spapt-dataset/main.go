// Command spapt-dataset generates and inspects the §4.5 datasets: for
// one or more kernels (or any registered simulated space) it samples
// distinct configurations, profiles each a fixed number of times, and
// prints noise summaries (Table 2 style) plus optional
// per-configuration CSV dumps.
//
// Usage:
//
//	spapt-dataset -kernel mm
//	spapt-dataset -kernel synthetic/plateau
//	spapt-dataset -kernel correlation -configs 2000 -obs 35 -csv corr.csv
//	spapt-dataset -all -configs 1000
package main

import (
	"flag"
	"fmt"
	"os"

	"alic/internal/dataset"
	"alic/internal/report"
	"alic/internal/space"
	_ "alic/internal/space/execspace"
	_ "alic/internal/space/spaptspace"
	_ "alic/internal/space/synthetic"
	"alic/internal/spapt"
	"alic/internal/stats"
)

func main() {
	var (
		kernel  = flag.String("kernel", "", "registered space to generate (mutually exclusive with -all)")
		all     = flag.Bool("all", false, "summarise every kernel")
		configs = flag.Int("configs", 2000, "number of distinct configurations")
		obs     = flag.Int("obs", 35, "observations per configuration")
		seed    = flag.Uint64("seed", 1, "generation seed")
		csvPath = flag.String("csv", "", "write per-configuration CSV to this file")
	)
	flag.Parse()

	var names []string
	switch {
	case *all:
		names = spapt.Names()
	case *kernel != "":
		names = []string{*kernel}
	default:
		fatal(fmt.Errorf("pass -kernel NAME or -all"))
	}

	tab := report.NewTable(
		fmt.Sprintf("dataset summaries (%d configs, %d observations each)", *configs, *obs),
		"benchmark", "runtime min", "runtime mean", "runtime max",
		"var mean", "var max", "CI/mean fail@5%", "mean compile (s)")
	for _, name := range names {
		sp, err := space.ByName(name)
		if err != nil {
			fatal(err)
		}
		ds, err := dataset.Generate(sp, dataset.Options{
			NConfigs: *configs, NObs: *obs, TrainFrac: 0.75, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		var rt, vr, ct []float64
		for i := range ds.Configs {
			st, err := ds.Stats(i)
			if err != nil {
				fatal(err)
			}
			c, err := ds.CompileCost(i)
			if err != nil {
				fatal(err)
			}
			rt = append(rt, st.Mean)
			vr = append(vr, st.Variance)
			ct = append(ct, c)
		}
		rts, vs := stats.Summarize(rt), stats.Summarize(vr)
		ratios, err := ds.CIOverMeans(min(*obs, 5), 0.95)
		if err != nil {
			fatal(err)
		}
		tab.AddRow(name, rts.Min, stats.Mean(rt), rts.Max, vs.Mean, vs.Max,
			stats.FractionAbove(ratios, 0.05), stats.Mean(ct))

		if *csvPath != "" && len(names) == 1 {
			if err := dumpCSV(ds, *csvPath); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
		}
	}
	if err := tab.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

func dumpCSV(ds *dataset.Dataset, path string) error {
	tab := report.NewTable("", "config", "true_mean_s", "observed_mean_s", "variance", "compile_s")
	for i, cfg := range ds.Configs {
		mu, err := ds.TrueMean(i)
		if err != nil {
			return err
		}
		st, err := ds.Stats(i)
		if err != nil {
			return err
		}
		ct, err := ds.CompileCost(i)
		if err != nil {
			return err
		}
		tab.AddRow(fmt.Sprintf("%v", cfg), mu, st.Mean, st.Variance, ct)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return tab.CSV(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spapt-dataset:", err)
	os.Exit(1)
}
