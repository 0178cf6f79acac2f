package tuner

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"alic/internal/dynatree"
	"alic/internal/measure"
	"alic/internal/space"
	_ "alic/internal/space/spaptspace"
	"alic/internal/stats"
)

// TestParallelVerificationMatchesSerial pins the evaluator-pool
// rework: verification at any worker count must select the same
// winner as serial verification, with bit-identical measured runtimes
// and verification cost (every observation addresses its own
// deterministic noise draw, and the engine folds the cost ledger in
// scheduling order).
func TestParallelVerificationMatchesSerial(t *testing.T) {
	run := func(workers int) *Result {
		k, err := space.ByName("gemver")
		if err != nil {
			t.Fatal(err)
		}
		sess, err := measure.NewSession(k, 31)
		if err != nil {
			t.Fatal(err)
		}
		norm := &stats.Normalizer{Means: make([]float64, k.Dim()), Stddevs: onesVec(k.Dim())}
		model := trainModel(t, k, 31, norm, 120)
		res, err := Search(model, sess, norm, Options{
			Candidates: 600, Verify: 12, VerifyObs: 3, Seed: 11, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	serial := run(1)
	for _, workers := range []int{4, 8} {
		par := run(workers)
		if !reflect.DeepEqual(par.Best.Config, serial.Best.Config) {
			t.Fatalf("workers=%d selected winner %v, serial selected %v",
				workers, par.Best.Config, serial.Best.Config)
		}
		if par.Best.Measured != serial.Best.Measured {
			t.Fatalf("workers=%d measured winner at %v, serial at %v (not bit-identical)",
				workers, par.Best.Measured, serial.Best.Measured)
		}
		if len(par.Top) != len(serial.Top) {
			t.Fatalf("workers=%d verified %d, serial %d", workers, len(par.Top), len(serial.Top))
		}
		for i := range par.Top {
			if par.Top[i].Measured != serial.Top[i].Measured {
				t.Fatalf("workers=%d: top[%d] measured %v, serial %v",
					workers, i, par.Top[i].Measured, serial.Top[i].Measured)
			}
		}
		if par.VerifyCost != serial.VerifyCost {
			t.Fatalf("workers=%d verification cost %v, serial %v (ledger not order-free)",
				workers, par.VerifyCost, serial.VerifyCost)
		}
		if par.Baseline != serial.Baseline {
			t.Fatalf("workers=%d baseline %v, serial %v", workers, par.Baseline, serial.Baseline)
		}
	}
}

// TestBaselineInTopSetReusesVerifiedMean covers the corner where the
// model ranks the -O2 baseline itself into the verified top set: its
// verified mean then doubles as the baseline measurement and the
// speedup of a baseline winner is exactly 1.
func TestBaselineInTopSetReusesVerifiedMean(t *testing.T) {
	k, err := space.ByName("mvt")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := measure.NewSession(k, 33)
	if err != nil {
		t.Fatal(err)
	}
	norm := &stats.Normalizer{Means: make([]float64, k.Dim()), Stddevs: onesVec(k.Dim())}
	model := trainModel(t, k, 33, norm, 60)
	// Verify == Candidates forces every sampled candidate (possibly
	// including the baseline) into the verified set; the test mainly
	// asserts the search stays consistent rather than a specific draw.
	res, err := Search(model, sess, norm, Options{
		Candidates: 40, Verify: 40, VerifyObs: 2, Seed: 13, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Baseline) || res.Baseline <= 0 {
		t.Fatalf("baseline not measured: %v", res.Baseline)
	}
	for i := range res.Top {
		if reflect.DeepEqual(res.Top[i].Config, k.BaselineConfig()) {
			if res.Top[i].Measured != res.Baseline {
				t.Fatalf("baseline in top set measured %v but reported baseline %v",
					res.Top[i].Measured, res.Baseline)
			}
		}
	}
}

// verifiedKeys returns the keys of the configurations a Search
// profiled: its verified top set plus the -O2 baseline.
func verifiedKeys(k space.Space, res *Result) map[uint64]bool {
	keys := map[uint64]bool{k.Key(k.BaselineConfig()): true}
	for _, c := range res.Top {
		keys[k.Key(c.Config)] = true
	}
	return keys
}

// checkHistory asserts that the session's history holds exactly
// VerifyObs runs of every configuration each search verified, and one
// compile per distinct configuration across them.
func checkHistory(t *testing.T, k space.Space, sess *measure.Session, verifyObs int, results ...*Result) {
	t.Helper()
	runs := 0
	all := make(map[uint64]bool)
	for _, res := range results {
		keys := verifiedKeys(k, res)
		runs += len(keys) * verifyObs
		for key := range keys {
			all[key] = true
		}
	}
	if sess.Runs() != runs || sess.Compiles() != len(all) {
		t.Fatalf("session history runs=%d compiles=%d, want %d runs and %d compiles of the verified sets",
			sess.Runs(), sess.Compiles(), runs, len(all))
	}
}

// TestRepeatedSearchContinuesSessionHistory pins the session-history
// behaviour: a second Search on the same session must continue each
// verified config's noise stream (fresh draws, not a replay), never
// re-charge compile time, and leave the session's run and compile
// counts covering exactly the verified sets.
func TestRepeatedSearchContinuesSessionHistory(t *testing.T) {
	k, err := space.ByName("mvt")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := measure.NewSession(k, 37)
	if err != nil {
		t.Fatal(err)
	}
	norm := &stats.Normalizer{Means: make([]float64, k.Dim()), Stddevs: onesVec(k.Dim())}
	model := trainModel(t, k, 37, norm, 80)
	opts := Options{Candidates: 300, Verify: 6, VerifyObs: 2, Seed: 19, Workers: 4}

	first, err := Search(model, sess, norm, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkHistory(t, k, sess, opts.VerifyObs, first)
	second, err := Search(model, sess, norm, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkHistory(t, k, sess, opts.VerifyObs, first, second)
	// Same seed, same model: the same top set is verified — but the
	// measurements must be fresh draws, not a replay of the first call.
	if !reflect.DeepEqual(first.Best.Config, second.Best.Config) &&
		first.Top[0].Measured == second.Top[0].Measured {
		t.Fatal("second search replayed the first search's draws")
	}
	replayed := 0
	for i := range second.Top {
		for j := range first.Top {
			if reflect.DeepEqual(second.Top[i].Config, first.Top[j].Config) &&
				second.Top[i].Measured == first.Top[j].Measured {
				replayed++
			}
		}
	}
	if replayed == len(second.Top) {
		t.Fatal("every verified mean was replayed identically: session history not advancing")
	}
	// The second pass re-verifies already-compiled configs: its cost
	// must be cheaper than the first by exactly the compile charges.
	if second.VerifyCost >= first.VerifyCost {
		t.Fatalf("second verification cost %v >= first %v: compile time re-charged",
			second.VerifyCost, first.VerifyCost)
	}
}

// TestConcurrentSearchesShareSessionHistory runs two identical
// Searches on one session at once (run it under -race). Whichever
// reserves first must measure every verified config at ordinals
// 0..VerifyObs-1 and pay the compiles; the other must measure the next
// VerifyObs ordinals and pay runs only. No (config, ordinal) may be
// measured twice.
func TestConcurrentSearchesShareSessionHistory(t *testing.T) {
	k, err := space.ByName("gemver")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 41
	sess, err := measure.NewSession(k, seed)
	if err != nil {
		t.Fatal(err)
	}
	norm := &stats.Normalizer{Means: make([]float64, k.Dim()), Stddevs: onesVec(k.Dim())}
	opts := Options{Candidates: 300, Verify: 6, VerifyObs: 3, Seed: 23, Workers: 2}
	// One model per search: the two searches rank identically without
	// sharing a model across goroutines.
	models := []*dynatree.Forest{trainModel(t, k, seed, norm, 80), trainModel(t, k, seed, norm, 80)}
	results := make([]*Result, 2)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := Search(models[g], sess, norm, opts)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = res
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	checkHistory(t, k, sess, opts.VerifyObs, results...)

	// blockMean is the verified mean a search reading ordinals
	// block*VerifyObs onwards reports for cfg, and blockRuns their sum.
	blockMean := func(cfg space.Config, block int) (float64, float64) {
		var w stats.Welford
		var runs float64
		for ord := block * opts.VerifyObs; ord < (block+1)*opts.VerifyObs; ord++ {
			y, err := sess.At(cfg, ord)
			if err != nil {
				t.Fatal(err)
			}
			w.Add(y)
			runs += y
		}
		return w.Mean(), runs
	}
	// Block 0 belongs to the search whose baseline matches it.
	base := k.BaselineConfig()
	m0, _ := blockMean(base, 0)
	owner := 0
	if results[1].Baseline == m0 {
		owner = 1
	}
	for g, res := range results {
		block := 0
		if g != owner {
			block = 1
		}
		cfgs := []space.Config{base}
		for _, c := range res.Top {
			if k.Key(c.Config) != k.Key(base) {
				cfgs = append(cfgs, c.Config)
			}
		}
		var runs, compiles float64
		for _, cfg := range cfgs {
			want, r := blockMean(cfg, block)
			runs += r
			ct, err := sess.CompileCost(cfg)
			if err != nil {
				t.Fatal(err)
			}
			compiles += ct
			got := res.Baseline
			for _, c := range res.Top {
				if k.Key(c.Config) == k.Key(cfg) {
					got = c.Measured
				}
			}
			if got != want {
				t.Fatalf("search %d measured %v for %v, want its ordinal block %d (%v)", g, got, cfg, block, want)
			}
		}
		wantCost := runs
		if block == 0 {
			wantCost += compiles
		}
		if math.Abs(res.VerifyCost-wantCost) > 1e-9*wantCost {
			t.Fatalf("search %d (ordinal block %d) verification cost %v, want %v", g, block, res.VerifyCost, wantCost)
		}
	}
}
