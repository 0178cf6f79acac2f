// Command alic tunes a search space end-to-end: it learns a runtime
// model, the paper's dynamic trees, with the chosen sampling plan (the
// variable-observation plan by default), then runs model-driven
// configuration search (§4.1) and reports the best configuration found
// together with its speedup over the baseline.
//
// The SPAPT kernels of the paper are the default spaces; -space selects
// any registered space (synthetic robustness spaces, the exec-backed
// compiler-flag space, or user registrations).
//
// Usage:
//
//	alic -kernel mm
//	alic -kernel gemver -plan fixed -planobs 35
//	alic -kernel atax -scorer alm -nmax 600 -seed 3
//	alic -kernel mvt -leaf linear -nmax 200 -ncand 60
//	alic -kernel mm -snapshot run.alicsnp          # ^C saves state
//	alic -kernel mm -resume run.alicsnp            # picks up where it left off
//	alic -space synthetic/needle -pool 800 -test 200
//	alic -list
//	alic -spaces
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"alic"
	"alic/internal/dynatree"
	"alic/internal/report"
	"alic/internal/space/spaptspace"
)

func main() {
	var (
		kernel     = flag.String("kernel", "mm", "SPAPT kernel to tune (shorthand for -space with a kernel name)")
		spaceName  = flag.String("space", "", "search space to tune (any registered space; overrides -kernel)")
		list       = flag.Bool("list", false, "list the SPAPT kernels and exit")
		listSpaces = flag.Bool("spaces", false, "list every registered search space and exit")
		describe   = flag.Bool("describe", false, "print the space's parameters (and loop nests for kernels), then exit")
		plan       = flag.String("plan", "variable", "sampling plan: "+strings.Join(alic.PlanNames(), "|"))
		planObs    = flag.Int("planobs", 35, "observations per example for the fixed plan")
		scorer     = flag.String("scorer", "alc", "acquisition heuristic: "+strings.Join(alic.AcquisitionNames(), "|"))
		leaf       = flag.String("leaf", "constant", "dynamic-tree leaf model: constant|linear")
		nmax       = flag.Int("nmax", 400, "acquisition budget")
		ninit      = flag.Int("ninit", 5, "seed examples")
		nobs       = flag.Int("nobs", 35, "seed observations / revisit cap")
		ncand      = flag.Int("ncand", 150, "candidates per iteration")
		particles  = flag.Int("particles", 400, "dynamic-tree particles")
		pool       = flag.Int("pool", 3000, "training pool size")
		test       = flag.Int("test", 600, "test set size")
		seed       = flag.Uint64("seed", 1, "experiment seed")
		verify     = flag.Int("verify", 10, "configurations to verify during tuning")
		evalWork   = flag.Int("eval-workers", 0, "concurrent profiling measurements (0 = all cores); results are identical for every value")
		progress   = flag.Bool("progress", false, "print acquisition progress while learning")
		cpuprof    = flag.String("cpuprofile", "", "write a pprof CPU profile of the learn loop to this file")
		memprof    = flag.String("memprofile", "", "write a pprof heap profile taken after the learn loop to this file")
		snapPath   = flag.String("snapshot", "", "write the learner state to this file when the run ends (including on SIGINT), for -resume")
		resPath    = flag.String("resume", "", "resume a run from a snapshot written by -snapshot (all tuning flags must match the original run)")
	)
	flag.Parse()

	if *list {
		for _, k := range alic.Kernels() {
			fmt.Printf("%-12s %-55s space %.3g\n", k.Name, k.Doc, k.SpaceSize())
		}
		return
	}
	if *listSpaces {
		for _, name := range alic.SpaceNames() {
			sp, err := alic.SpaceByName(name)
			if err != nil {
				fatal(err)
			}
			tag := " "
			if alic.IsLiveSpace(sp) {
				tag = "L" // live: measures by executing real commands
			}
			fmt.Printf("%s %-24s %-60s space %.3g\n", tag, sp.Name(), sp.Doc(), sp.Size())
		}
		return
	}

	name := *spaceName
	if name == "" {
		name = *kernel
	}
	sp, err := alic.SpaceByName(name)
	if err != nil {
		fatal(err)
	}

	if *describe {
		if k := kernelOf(sp); k != nil {
			out, err := k.Describe(k.BaselineConfig())
			if err != nil {
				fatal(err)
			}
			fmt.Print(out)
			return
		}
		fmt.Printf("%s: %s\n", sp.Name(), sp.Doc())
		for _, p := range sp.Params() {
			fmt.Printf("  %-12s 1..%d\n", p.Name, p.Max)
		}
		return
	}

	opts := alic.DefaultLearnOptions()
	opts.PoolSize = *pool
	opts.TestSize = *test
	opts.DatasetSeed = *seed
	opts.Learner.NInit = *ninit
	opts.Learner.NObs = *nobs
	opts.Learner.NCand = *ncand
	opts.Learner.NMax = *nmax
	opts.Learner.Seed = *seed
	opts.Learner.Tree.Particles = *particles
	opts.Learner.Tree.ScoreParticles = max(20, *particles/6)
	switch *leaf {
	case "constant":
		opts.Learner.Tree.LeafModel = dynatree.ConstantLeaf
	case "linear":
		opts.Learner.Tree.LeafModel = dynatree.LinearLeaf
	default:
		fatal(fmt.Errorf("unknown -leaf model %q (want constant or linear)", *leaf))
	}
	opts.Learner.EvalWorkers = *evalWork
	opts.Learner.PlanObs = *planObs

	if opts.Learner.Plan, err = alic.PlanByName(*plan); err != nil {
		fatal(err)
	}
	if opts.Learner.Scorer, err = alic.AcquisitionByName(*scorer); err != nil {
		fatal(err)
	}
	if *progress {
		opts.Learner.Progress = func(p alic.LearnerProgress) {
			fmt.Fprintf(os.Stderr, "  acquired %4d (%d runs, %.0f s cost; model %.0f ms scoring / %.0f ms updating)\n",
				p.Acquired, p.Observations, p.Cost,
				p.ScoreSeconds*1e3, p.UpdateSeconds*1e3)
		}
	}

	fmt.Printf("learning %s: leaf=%s plan=%s scorer=%s nmax=%d (space %.3g)\n",
		sp.Name(), *leaf, *plan, *scorer, *nmax, sp.Size())

	if alic.IsLiveSpace(sp) {
		if *snapPath != "" || *resPath != "" {
			fatal(fmt.Errorf("live space %s: -snapshot/-resume need a pre-generated corpus", sp.Name()))
		}
		tuneLive(sp, opts)
		return
	}

	// Profile the learn loop only: model updates plus candidate
	// scoring, the hot paths e2ebench times. See the README's
	// "Profiling the scoring hot path" section for the workflow.
	// fatal exits via os.Exit, which skips deferred cleanup, so the
	// profile is stopped and the file closed explicitly on every path
	// — a Learn error must still leave a complete, readable profile.
	stopCPUProfile := func() {}
	if *cpuprof != "" {
		pf, err := os.Create(*cpuprof)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			fatal(err)
		}
		stopCPUProfile = func() {
			pprof.StopCPUProfile()
			if err := pf.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "alic: closing cpu profile:", err)
			}
		}
	}
	// SIGINT/SIGTERM cancels the run context: the learner finishes the
	// round in flight and reports StopCancelled, so the partial model
	// is still usable, the profiles below still flush, and -snapshot
	// saves the interrupted state for a later -resume. A second signal
	// (after stop restores the default disposition) kills the process
	// the hard way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := learn(ctx, sp, opts, *resPath, *snapPath)
	stop()
	stopCPUProfile()
	if err != nil {
		fatal(err)
	}
	if *memprof != "" {
		mf, err := os.Create(*memprof)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // surface only live steady-state allocations
		werr := pprof.WriteHeapProfile(mf)
		if cerr := mf.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fatal(werr)
		}
	}
	fmt.Printf("model: RMSE %s s after %d acquisitions (%d runs, %d unique configs, %d revisits)\n",
		report.FormatFloat(res.FinalError), res.Acquired, res.Observations,
		res.Unique, res.Revisits)
	fmt.Printf("training cost: %s simulated seconds (stopped by %s)\n",
		report.FormatFloat(res.Cost), res.StoppedBy)
	if res.StoppedBy == alic.StopCancelled {
		if *snapPath != "" {
			fmt.Printf("interrupted: skipping configuration search (resume with -resume %s)\n", *snapPath)
		} else {
			fmt.Println("interrupted: skipping configuration search")
		}
		return
	}

	sess, err := alic.NewSpaceSession(sp, *seed+1)
	if err != nil {
		fatal(err)
	}
	tres, err := alic.Tune(res.Model, sess, res.Dataset, alic.TunerOptions{
		Candidates: 4000, Verify: *verify, VerifyObs: 3, Seed: *seed + 2,
		Workers: *evalWork,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("\nbest configuration (verified %d candidates, %s s verification cost):\n",
		len(tres.Top), report.FormatFloat(tres.VerifyCost))
	printConfig(sp, tres.Best.Config)
	fmt.Printf("predicted %s s, measured %s s, baseline %s s -> speedup %.2fx\n",
		report.FormatFloat(tres.Best.Predicted),
		report.FormatFloat(tres.Best.Measured),
		report.FormatFloat(tres.Baseline), tres.Speedup)
}

// kernelOf unwraps a SPAPT-backed space to its kernel; nil for every
// other provider.
func kernelOf(sp alic.Space) *alic.Kernel {
	if w, ok := sp.(*spaptspace.Space); ok {
		return w.Kernel()
	}
	return nil
}

// printConfig prints one configuration, with the kernel-aware detail
// (parameter kind, loop nest) when the space wraps a SPAPT kernel.
func printConfig(sp alic.Space, cfg alic.Config) {
	if k := kernelOf(sp); k != nil {
		for i, p := range k.Params {
			fmt.Printf("  %-10s (%s, %s/%s) = %d\n",
				p.Name, p.Kind, k.Nests[p.Nest].Name, p.Loop, cfg[i])
		}
		return
	}
	for i, p := range sp.Params() {
		fmt.Printf("  %-12s = %d\n", p.Name, cfg[i])
	}
}

// tuneLive drives a live space through LearnLive: acquisitions measure
// the real machine, and the report is the model's predicted-best
// configuration (there is no simulated ground truth to verify
// against).
func tuneLive(sp alic.Space, opts alic.LearnOptions) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := alic.LearnLive(ctx, sp, opts)
	stop()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("live tuning done: %d acquisitions, %d runs, %s s measured cost (stopped by %s)\n",
		res.Acquired, res.Observations, report.FormatFloat(res.Cost), res.StoppedBy)
	if res.Winner != nil {
		fmt.Printf("\npredicted-best configuration (predicted %s s):\n",
			report.FormatFloat(res.WinnerPredicted))
		printConfig(sp, res.Winner)
	}
}

// learn runs the model-training phase step-wise (NewLearner + Run
// instead of the one-shot Learn facade) so the learner state can be
// saved with -snapshot and reloaded with -resume. The dataset is
// regenerated from the same seed on both sides; a resume under
// different tuning flags is rejected with ErrSnapshotMismatch rather
// than silently diverging.
func learn(ctx context.Context, sp alic.Space, opts alic.LearnOptions, resumePath, snapshotPath string) (*alic.LearnResult, error) {
	dopts, err := opts.DatasetOptions()
	if err != nil {
		return nil, err
	}
	ds, err := alic.GenerateSpaceDataset(sp, dopts)
	if err != nil {
		return nil, err
	}
	var l *alic.Learner
	if resumePath != "" {
		f, err := os.Open(resumePath)
		if err != nil {
			return nil, err
		}
		l, err = alic.ResumeLearner(ds, opts.Learner, f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("resuming %s: %w", resumePath, err)
		}
		fmt.Fprintf(os.Stderr, "alic: resumed from %s (%d acquisitions done)\n",
			resumePath, l.Result().Acquired)
	} else if l, err = alic.NewLearner(ds, opts.Learner); err != nil {
		return nil, err
	}
	defer l.Close()
	res, err := l.Run(ctx)
	if err != nil {
		return nil, err
	}
	if snapshotPath != "" {
		if err := writeSnapshot(l, snapshotPath); err != nil {
			return nil, fmt.Errorf("writing snapshot: %w", err)
		}
		fmt.Fprintf(os.Stderr, "alic: learner snapshot written to %s\n", snapshotPath)
	}
	return &alic.LearnResult{LearnerResult: res, Dataset: ds}, nil
}

// writeSnapshot saves the learner atomically: a crash mid-write (or a
// failed Snapshot) never leaves a torn file at the target path.
func writeSnapshot(l *alic.Learner, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = l.Snapshot(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, errorLine(err))
	os.Exit(1)
}

// errorLine formats err for stderr behind one "alic:" prefix: the
// facade's sentinel errors already carry it.
func errorLine(err error) string {
	if msg := err.Error(); strings.HasPrefix(msg, "alic: ") {
		return msg
	}
	return "alic: " + err.Error()
}
