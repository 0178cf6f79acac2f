// Noise robustness: the experiment the paper's conclusion proposes as
// future work — "test the bounds of our technique by artificially
// introducing noise into the system to see how robustly it performs in
// extreme cases", e.g. heavily loaded multi-user machines.
//
// The program sweeps a noise amplification factor over one kernel's
// measurement-noise model and, at each level, compares the variable
// plan against the fixed-35 baseline (cost to the lowest common error).
//
//	go run ./examples/noise-robustness
//	go run ./examples/noise-robustness -kernel bicgkernel -levels 0.5,1,2,4
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"alic"
	"alic/internal/experiment"
	"alic/internal/report"
)

func main() {
	kernel := flag.String("kernel", "jacobi", "kernel to stress")
	levels := flag.String("levels", "0.5,1,2,4", "noise amplification factors")
	flag.Parse()

	var factors []float64
	for _, tok := range strings.Split(*levels, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil || f <= 0 {
			log.Fatalf("bad noise level %q", tok)
		}
		factors = append(factors, f)
	}

	s := experiment.FastSettings()
	s.Reps = 2
	s.NMax = 280

	tab := report.NewTable(
		fmt.Sprintf("noise robustness on %s (future-work experiment of §7)", *kernel),
		"noise x", "common RMSE (s)", "fixed-35 cost (s)", "variable cost (s)", "speed-up")
	for _, f := range factors {
		k, err := alic.KernelByName(*kernel)
		if err != nil {
			log.Fatal(err)
		}
		// Amplify every stochastic component of the kernel's noise
		// model — the "heavily loaded machine" scenario.
		k.Noise.BaseRel *= f
		k.Noise.LayoutRel *= f
		k.Noise.DriftRel *= f
		k.Noise.SpikeProb = min(1, k.Noise.SpikeProb*f)

		sp, err := alic.WrapKernel(k)
		if err != nil {
			log.Fatal(err)
		}
		curves, err := experiment.RunCurves(sp, s, nil)
		if err != nil {
			log.Fatal(err)
		}
		level, baseCost, ourCost := experiment.LowestCommon(
			curves.Curves[experiment.AllObservations],
			curves.Curves[experiment.VariableObservations])
		speedup := 0.0
		if ourCost > 0 {
			speedup = baseCost / ourCost
		}
		tab.AddRow(f, level, baseCost, ourCost, speedup)
		fmt.Printf("noise x%.1f done\n", f)
	}
	fmt.Println()
	if err := tab.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
