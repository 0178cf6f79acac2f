// Command spapt-dataset generates and inspects the §4.5 datasets: for
// one or more kernels it samples distinct configurations, profiles each
// a fixed number of times, and prints noise summaries (Table 2 style)
// plus optional per-configuration CSV dumps.
//
// Usage:
//
//	spapt-dataset -kernel mm
//	spapt-dataset -kernel correlation -configs 2000 -obs 35 -csv corr.csv
//	spapt-dataset -all -configs 1000
package main

import (
	"flag"
	"fmt"
	"os"

	"alic/internal/dataset"
	"alic/internal/experiment"
	"alic/internal/report"
	"alic/internal/space/spaptspace"
	"alic/internal/spapt"
)

func main() {
	var (
		kernel  = flag.String("kernel", "", "kernel to generate (mutually exclusive with -all)")
		all     = flag.Bool("all", false, "summarise every kernel")
		configs = flag.Int("configs", 2000, "number of distinct configurations")
		obs     = flag.Int("obs", 35, "observations per configuration")
		seed    = flag.Uint64("seed", 1, "generation seed")
		csvPath = flag.String("csv", "", "write per-configuration CSV to this file")
	)
	flag.Parse()

	var kernels []*spapt.Kernel
	switch {
	case *all:
		kernels = spapt.Kernels()
	case *kernel != "":
		k, err := spapt.ByName(*kernel)
		if err != nil {
			fatal(err)
		}
		kernels = []*spapt.Kernel{k}
	default:
		fatal(fmt.Errorf("pass -kernel NAME or -all"))
	}

	tab := report.NewTable(
		fmt.Sprintf("dataset summaries (%d configs, %d observations each)", *configs, *obs),
		"benchmark", "runtime min", "runtime mean", "runtime max",
		"var mean", "var max", "CI/mean fail@5%%", "mean compile (s)")
	for _, k := range kernels {
		sp, err := spaptspace.Wrap(k)
		if err != nil {
			fatal(err)
		}
		ds, err := dataset.Generate(sp, dataset.Options{
			NConfigs: *configs, NObs: *obs, TrainFrac: 0.75, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		var rt, ct []float64
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
			ct = append(ct, c)
		}
		rts := summarize(rt)
		vs, err := ds.VarianceSummary()
		if err != nil {
			fatal(err)
		}
		failRate, err := experiment.FailureRates(ds, min(*obs, 5), 0.05, 0.95)
		if err != nil {
			fatal(err)
		}
		tab.AddRow(k.Name, rts.min, rts.mean, rts.max, vs.Mean, vs.Max,
			failRate, summarize(ct).mean)

		if *csvPath != "" && len(kernels) == 1 {
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

type summary struct{ min, mean, max float64 }

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := summary{min: xs[0], max: xs[0]}
	total := 0.0
	for _, x := range xs {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
		total += x
	}
	s.mean = total / float64(len(xs))
	return s
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
