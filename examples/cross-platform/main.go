// Cross-platform non-portability: the paper's opening argument is that
// optimization decisions tuned for one processor do not carry to
// another, which is why per-platform learned models beat static
// heuristics. This example makes that concrete: it learns a model and
// picks a good configuration on the desktop machine model, then
// evaluates that same configuration on a mobile-class core — and
// re-tunes natively for comparison.
//
//	go run ./examples/cross-platform
package main

import (
	"context"
	"fmt"
	"log"

	"alic"
	"alic/internal/costmodel"
)

func main() {
	kd, err := alic.KernelByName("gemver")
	if err != nil {
		log.Fatal(err)
	}
	km, err := kd.WithMachine(costmodel.MobileMachine())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kernel %s on %s and %s\n\n", kd.Name, kd.Machine().Name, km.Machine().Name)

	tune := func(k *alic.Kernel, label string) alic.Config {
		opts := alic.DefaultLearnOptions()
		opts.PoolSize = 1200
		opts.TestSize = 300
		opts.Learner.NMax = 260
		opts.Learner.NCand = 100
		opts.Learner.Tree.Particles = 250
		opts.Learner.Tree.ScoreParticles = 40
		sp, err := alic.WrapKernel(k)
		if err != nil {
			log.Fatal(err)
		}
		res, err := alic.Learn(context.Background(), sp, opts)
		if err != nil {
			log.Fatal(err)
		}
		sess, err := alic.NewSpaceSession(sp, 7)
		if err != nil {
			log.Fatal(err)
		}
		tres, err := alic.Tune(res.Model, sess, res.Dataset, alic.TunerOptions{
			Candidates: 4000, Verify: 10, VerifyObs: 3, Seed: 11,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: best config %v -> %.2fx over -O2 (model RMSE %.4f)\n",
			label, tres.Best.Config, tres.Speedup, res.FinalError)

		// Which parameters did the model find relevant? Importance is a
		// backend-optional capability; the dynatree backend has it.
		fi, ok := res.Model.(alic.FeatureImportancer)
		if !ok {
			fmt.Printf("%s: backend %T reports no feature importance\n", label, res.Model)
			return tres.Best.Config
		}
		imp := fi.Importance(k.Dim())
		top, second := 0, 0
		for i := range imp {
			if imp[i] > imp[top] {
				second = top
				top = i
			} else if imp[i] > imp[second] && i != top {
				second = i
			}
		}
		fmt.Printf("%s: most informative parameters: %s (%.0f%%), %s (%.0f%%)\n",
			label, k.Params[top].Name, imp[top]*100, k.Params[second].Name, imp[second]*100)
		return tres.Best.Config
	}

	desktopBest := tune(kd, "desktop")
	fmt.Println()

	// Evaluate the desktop-tuned configuration on the mobile core.
	mobileBase, err := km.TrueRuntime(km.BaselineConfig())
	if err != nil {
		log.Fatal(err)
	}
	ported, err := km.TrueRuntime(desktopBest)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("desktop-tuned config ported to mobile: %.2fx over mobile -O2\n",
		mobileBase/ported)

	mobileBest := tune(km, "mobile (native tuning)")
	native, err := km.TrueRuntime(mobileBest)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsummary on %s:\n", km.Machine().Name)
	fmt.Printf("  -O2 baseline        %.4f s\n", mobileBase)
	fmt.Printf("  desktop-tuned       %.4f s (%.2fx)\n", ported, mobileBase/ported)
	fmt.Printf("  natively tuned      %.4f s (%.2fx)\n", native, mobileBase/native)
	if native < ported {
		fmt.Println("native tuning beats the ported configuration — optimization")
		fmt.Println("decisions are not portable across platforms (§1 of the paper).")
	}
}
