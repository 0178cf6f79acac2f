// Autotuning cost comparison: run the three sampling plans of the
// paper's §4.3 on one kernel and reproduce a single Table 1 row — the
// lowest error both the fixed-35 baseline and the variable plan reach,
// and how many simulated profiling seconds each needs to get there.
//
//	go run ./examples/autotuning
//	go run ./examples/autotuning -kernel atax -nmax 400
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"alic"
	"alic/internal/experiment"
	"alic/internal/report"
)

func main() {
	kernel := flag.String("kernel", "jacobi", "kernel to tune")
	nmax := flag.Int("nmax", 320, "acquisition budget")
	reps := flag.Int("reps", 2, "repetitions to average")
	flag.Parse()

	k, err := alic.KernelByName(*kernel)
	if err != nil {
		log.Fatal(err)
	}
	sp, err := alic.WrapKernel(k)
	if err != nil {
		log.Fatal(err)
	}
	s := experiment.FastSettings()
	s.NMax = *nmax
	s.Reps = *reps

	fmt.Printf("comparing sampling plans on %s (%d acquisitions, %d reps)\n\n",
		k.Name, s.NMax, s.Reps)
	curves, err := experiment.RunCurves(sp, s, func(msg string) {
		fmt.Fprintf(os.Stderr, "  %s\n", msg)
	})
	if err != nil {
		log.Fatal(err)
	}

	var series []report.Series
	for _, strat := range experiment.Strategies() {
		c := curves.Curves[strat]
		series = append(series, report.Series{Name: strat.String(), X: c.Cost, Y: c.Error})
	}
	if err := report.Plot(os.Stdout,
		fmt.Sprintf("RMSE vs profiling cost — %s", k.Name),
		"cumulative cost (s)", "RMSE (s)", series, 64, 16); err != nil {
		log.Fatal(err)
	}

	baseline := curves.Curves[experiment.AllObservations]
	ours := curves.Curves[experiment.VariableObservations]
	level, baseCost, ourCost := experiment.LowestCommon(baseline, ours)
	fmt.Printf("\nlowest common RMSE: %.4f s\n", level)
	fmt.Printf("  fixed 35-observation plan reaches it after %8.0f s\n", baseCost)
	fmt.Printf("  variable-observation plan reaches it after %8.0f s\n", ourCost)
	if ourCost > 0 {
		fmt.Printf("  -> speed-up %.2fx\n", baseCost/ourCost)
	}

	one := curves.Curves[experiment.OneObservation]
	fmt.Printf("\nfor reference, the one-observation plan bottoms out at RMSE %.4f s\n",
		one.MinError())
	fmt.Println("(on noisy kernels it plateaus above the other plans — Figure 6a/6c of the paper)")
}
