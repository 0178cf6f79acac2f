package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"alic"
	"alic/internal/model"
	"alic/internal/rng"
)

// tinyCLI is the CLI workload shrunk to test size.
func tinyCLI() cliConfig {
	return cliConfig{
		Kernels: []string{"mm", "gemver"}, Seeds: seedPlan{Panel: 1, PerSeed: 1},
		Pool: 60, Test: 20, NMax: 12, NCand: 10, NInit: 3, NObs: 5,
		Particles: 20, ScoreParticles: 5, Candidates: 40, Verify: 3, VerifyObs: 2,
	}
}

// tiny shrinks a served workload to test size.
func tiny(cfg servedConfig) servedConfig {
	cfg.Spec.PoolSize, cfg.Spec.MaxRounds, cfg.Spec.Particles, cfg.Spec.NCand = 40, 8, 8, 8
	cfg.Seeds = seedPlan{Panel: 2, PerSeed: 1}
	return cfg
}

func TestTracedModelKeepsForestInterfaces(t *testing.T) {
	cfg := alic.DefaultLearnOptions().Learner.Tree
	cfg.Particles, cfg.ScoreParticles = 8, 2
	m, err := tracedBuilder{cfg: cfg, tr: newTracer()}.New(model.Params{
		Dim: 2, SeedTargets: []float64{1, 2, 3}, RNG: rng.NewStream(1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*tracedForest); !ok {
		t.Fatalf("builder returned %T", m)
	}
	for name, ok := range map[string]bool{
		"PoolBinder":   implements[model.PoolBinder](m),
		"RoundUpdater": implements[model.RoundUpdater](m),
		"Snapshotter":  implements[model.Snapshotter](m),
		"Importancer":  implements[model.Importancer](m),
	} {
		if !ok {
			t.Errorf("traced model lost %s", name)
		}
	}
}

func implements[I any](m model.Model) bool {
	_, ok := m.(I)
	return ok
}

// runPanel runs one cycle of a set-up workload's panel seeds in ph.
func runPanel(w workload, ph *phase) {
	panel, _ := w.sessionSeeds()
	ph.measure(0, func(ph *phase) { w.run(ph, panel) })
}

// runPhases runs one untraced and one traced phase of a set-up
// workload, each as short as the workload allows.
func runPhases(t *testing.T, w workload) (plain, traced *phase) {
	t.Helper()
	plain = newPhase(nil)
	runPanel(w, plain)
	traced = newPhase(newTracer())
	enableTracing(w, traced.tr)
	runPanel(w, traced)
	for _, ph := range []*phase{plain, traced} {
		if ph.failed != 0 {
			t.Fatalf("%d of %d operations failed: %v", ph.failed, ph.attempted, ph.failures)
		}
	}
	if len(plain.outputs) == 0 || len(plain.outputs) != len(traced.outputs) {
		t.Fatalf("untraced phase has %d outcomes, traced %d", len(plain.outputs), len(traced.outputs))
	}
	for key, o := range plain.outputs {
		if got := traced.outputs[key].digest; got != o.digest {
			t.Errorf("%s: traced outputs differ from untraced:\n%s\n%s", key, got, o.digest)
		}
	}
	return plain, traced
}

func TestCLITracedMatchesUntraced(t *testing.T) {
	w, err := newCLITune(tinyCLI(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	_, traced := runPhases(t, w)
	for _, layer := range []string{"model.score", "model.update", "model.predict", "model.bind", "core.run", "tuner.search"} {
		if traced.tr.total(layer).calls == 0 {
			t.Errorf("traced run recorded no %s span", layer)
		}
	}
}

func TestCheckpointedTracedMatchesUntraced(t *testing.T) {
	w, err := newServed(tiny(servedCheckpointed()), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	if err := w.reference(); err != nil {
		t.Fatal(err)
	}
	_, traced := runPhases(t, w)
	if traced.tr.total("model.snapshot").calls == 0 || traced.tr.total("serve.checkpoint").units == 0 {
		t.Error("checkpointed sessions took no traced snapshots")
	}
	// One checkpoint per round, plus the final one of the restore check.
	for key, o := range traced.outputs {
		if o.q.Checkpoints == 0 {
			t.Errorf("%s: no checkpoints", key)
		}
	}
	rounds := traced.tr.total("serve.poll_useful").calls
	if got := traced.tr.total("serve.checkpoint").calls; got != rounds+int64(len(traced.sessions)) {
		t.Errorf("%d checkpoints in %d rounds of %d sessions", got, rounds, len(traced.sessions))
	}
}

func TestRemoteAgentReproducesSimulated(t *testing.T) {
	w, err := newServed(tiny(servedRemote()), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	if err := w.reference(); err != nil {
		t.Fatal(err)
	}
	plain, traced := runPhases(t, w)
	if len(plain.rounds) == 0 || traced.tr.total("measure.runs").units == 0 {
		t.Error("agents measured no rounds")
	}

	// The comparison must bite: an agent whose values differ from the
	// kernel's would fail it.
	w.ref[w.seeds[0]] = "not the simulated outcome"
	ph := newPhase(nil)
	runPanel(w, ph)
	if ph.failed == 0 {
		t.Error("a remote session that differs from its simulated reference passed")
	}
}

// TestMetricsMatchBenchmarkJSON pins the metric lists of BENCHMARK.json
// to what the harness prints.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	w, err := newCLITune(tinyCLI(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		res, err := measureWorkload(w, "cli-tune", 1, 0, traced, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("traced=%v: correct=%v, %d of %d failed", traced, res.Correct, res.Failed, res.Attempted)
		}
		want := map[string]string{}
		list := spec.EndToEnd
		if traced {
			list = spec.PerLayer
		}
		for _, m := range list {
			want[m.Name] = m.Unit
		}
		var got, missing []string
		for name, m := range res.Metrics {
			if want[name] != m.Unit {
				got = append(got, name+" "+m.Unit)
			}
		}
		for name := range want {
			if _, ok := res.Metrics[name]; !ok {
				missing = append(missing, name)
			}
		}
		sort.Strings(got)
		sort.Strings(missing)
		if len(got) > 0 || len(missing) > 0 {
			t.Errorf("traced=%v: printed but not in BENCHMARK.json (or other unit): %v; missing: %v", traced, got, missing)
		}
	}
}

func TestCyclesRunWholeCycles(t *testing.T) {
	ph := newPhase(nil)
	ph.deadline = time.Now().Add(20 * time.Millisecond)
	var mu sync.Mutex
	count := map[uint64]int{}
	cycles(ph, []uint64{1, 2, 3}, 2, func(_ int, seed uint64) {
		time.Sleep(time.Millisecond)
		mu.Lock()
		count[seed]++
		mu.Unlock()
	})
	if count[1] < 2 || count[1] != count[2] || count[2] != count[3] {
		t.Errorf("sessions per seed %v, want equal counts over several cycles", count)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {100, 4}, {90, 3.7}} {
		if got := quantile(xs, c.p); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
}
