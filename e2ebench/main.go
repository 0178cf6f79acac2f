// Command e2ebench is the repository's end-to-end benchmark. It runs
// one workload in this process, through the public entry points only
// (the alic facade, internal/serve's server and HTTP API,
// internal/measure and the model.Builder interface), checks that the
// outputs are correct, and prints every metric by name and unit.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload cli-tune --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//	cli-tune             cmd/alic at its defaults on mm, gemver and dgemv3
//	served-remote        remote-source sessions over loopback HTTP, fed by agents
//	served-checkpointed  simulated sessions checkpointed over HTTP while they run
//
// With --trace 0 the last line holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics, measured in traced windows
// that alternate with untraced ones (see LAYERS.md).
// The lines before it are JSON detail: machine, configuration,
// per-kernel or per-seed outcomes and any failures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"alic"
)

// workload is one benchmark workload's driver.
type workload interface {
	// setup prepares everything the sessions reuse; it is timed, and
	// repeated setupReps times.
	setup() error
	// run executes sessions over seeds until the phase ends, in whole
	// cycles over seeds (see cycles).
	run(ph *phase, seeds []uint64)
	// close releases what setup acquired.
	close()
	// keys is how many distinct (kernel, seed) outcomes a run produces,
	// and perSession how many of them one session produces.
	keys() (total, perSession int)
	// sessionSeeds are the seeds of the timed sessions (the panel every
	// run shares) and of the untimed ones only this workload seed runs.
	sessionSeeds() (panel, own []uint64)
	// datasetCost is the last set-up's corpus generation time and the
	// profiling runs it simulated.
	datasetCost() (seconds float64, observations int)
	// serverSteps is the server's median and p99 scheduler step time
	// in seconds, zero without a server.
	serverSteps(ph *phase) (p50, p99 float64)
	// describe adds the workload's configuration to the detail record.
	describe(m map[string]any)
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

// traceWindows is how many alternating untraced and traced windows a
// traced run splits its time into.
const traceWindows = 4

func main() {
	var (
		name    = flag.String("workload", "", "cli-tune | served-remote | served-checkpointed")
		seed    = flag.Uint64("seed", 1, "workload seed (>= 1)")
		seconds = flag.Float64("seconds", 25, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 = report the per-layer metrics of a traced run")
	)
	flag.Parse()
	if *seed < 1 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("need --seed >= 1, --seconds > 0 and --trace 0|1")
	}
	res, err := runWorkload(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, os.Stdout)
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(1)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newWorkload builds a workload at its benchmark size.
func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "cli-tune":
		return newCLITune(defaultCLI(), seed)
	case "served-remote":
		return newServed(servedRemote(), seed)
	case "served-checkpointed":
		return newServed(servedCheckpointed(), seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want cli-tune, served-remote or served-checkpointed)", name)
}

// runWorkload sets the workload up, runs its timed window(s) and
// returns the result line; detail lines go to out.
func runWorkload(name string, seed uint64, d time.Duration, traced bool, out io.Writer) (*result, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	defer w.close()
	return measureWorkload(w, name, seed, d, traced, out)
}

// measureWorkload is runWorkload for a built workload.
func measureWorkload(w workload, name string, seed uint64, d time.Duration, traced bool, out io.Writer) (*result, error) {
	setups := make([]float64, setupReps)
	for i := range setups {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
	}
	if s, ok := w.(*served); ok {
		if err := s.reference(); err != nil {
			return nil, fmt.Errorf("simulated reference: %w", err)
		}
	}
	panel, own := w.sessionSeeds()
	on := func(seeds []uint64) func(*phase) { return func(ph *phase) { w.run(ph, seeds) } }

	rep := report{name: name, seed: seed, w: w, setups: setups}
	if !traced {
		rep.ph = newPhase(nil)
		rep.ph.measure(d, on(panel))
	} else {
		// Untraced and traced windows alternate, so a drift in the
		// machine's speed during the run hits both alike. The untraced
		// windows are the reference for the traced outputs and the base
		// of the tracing overhead.
		rep.plain, rep.ph = newPhase(nil), newPhase(newTracer())
		enableTracing(w, rep.ph.tr)
		for i := 0; i < traceWindows; i++ {
			if i%2 == 0 {
				rep.plain.measure(d/traceWindows, on(panel))
			} else {
				rep.ph.measure(d/traceWindows, on(panel))
			}
		}
		for key, o := range rep.ph.outputs {
			if p, ok := rep.plain.outputs[key]; ok {
				var err error
				if p.digest != o.digest {
					err = fmt.Errorf("%s: traced outputs differ from untraced", key)
				}
				rep.ph.check(err)
			}
		}
	}
	// One untimed cycle over the seeds only this workload seed runs.
	rep.own = newPhase(nil)
	rep.own.measure(0, on(own))
	rep.detail(out)
	if traced {
		return rep.perLayer(), nil
	}
	return rep.endToEnd(), nil
}

// enableTracing routes the workload's model through the tracing
// builder. The CLI workload passes it in its learner options; a
// served workload registers it over "dynatree", which only this
// traced process does.
func enableTracing(w workload, tr *tracer) {
	if s, ok := w.(*served); ok {
		alic.RegisterModel(tracedBuilder{cfg: s.treeConfig(), tr: tr})
	}
}

// report turns a measured run into its metrics.
type report struct {
	name   string
	seed   uint64
	w      workload
	setups []float64
	ph     *phase // the timed (traced) windows
	plain  *phase // untraced windows of a traced run
	own    *phase // the untimed sessions of the per-seed seeds
}

// phases are the run's phases that ran.
func (r *report) phases() []*phase {
	out := []*phase{r.ph, r.own}
	if r.plain != nil {
		out = append(out, r.plain)
	}
	return out
}

// outcomes are the deterministic outcomes of the timed (traced)
// windows and of the per-seed sessions, by key.
func (r *report) outcomes() map[string]output {
	all := make(map[string]output)
	for _, ph := range []*phase{r.ph, r.own} {
		for k, o := range ph.outputs {
			all[k] = o
		}
	}
	return all
}

func median(xs []float64) float64 { return quantile(xs, 50) }

func (r *report) endToEnd() *result {
	ph := r.ph
	_, perSession := r.w.keys()
	rmse, cost, _, speedup := aggregate(r.outcomes(), perSession)
	m := map[string]metric{
		"setup_s":              {median(r.setups), "s"},
		"session_s":            {median(ph.sessions), "s"},
		"session_p90_s":        {quantile(ph.sessions, 90), "s"},
		"sessions_per_s":       {float64(len(ph.sessions)) / ph.used.wall.Seconds(), "1/s"},
		"round_p50_s":          {median(ph.rounds), "s"},
		"cpu_s_per_session":    {ph.perSession(ph.used.cpu.Seconds()), "s"},
		"alloc_mb_per_session": {ph.perSession(float64(ph.used.alloc) / 1e6), "MB"},
		"final_rmse":           {rmse, "s"},
		"profiling_cost_s":     {cost, "s"},
		"tuned_speedup":        {speedup, "ratio"},
	}
	return r.finish(m)
}

func (r *report) perLayer() *result {
	ph, tr := r.ph, r.ph.tr
	per := func(name string) (s, calls, units float64) {
		l := tr.total(name)
		return ph.perSession(float64(l.ns) / 1e9), ph.perSession(float64(l.calls)), ph.perSession(float64(l.units))
	}
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	_, perSession := r.w.keys()
	_, _, ctt, _ := aggregate(r.outcomes(), perSession)
	put("cost_to_target_s", ctt, "s")

	genS, obs := r.w.datasetCost()
	put("dataset.generate_s", genS, "s")
	put("dataset.observations", float64(obs), "count")

	s, calls, units := per("model.score")
	put("model.score_s", s, "s")
	put("model.score_calls", calls, "count")
	put("model.score_candidates", units, "count")
	s, calls, units = per("model.update")
	put("model.update_s", s, "s")
	put("model.update_calls", calls, "count")
	put("model.update_rows", units, "count")
	s, _, units = per("model.predict")
	put("model.predict_s", s, "s")
	put("model.predict_rows", units, "count")
	s, _, _ = per("model.bind")
	put("model.bind_s", s, "s")
	s, calls, units = per("model.snapshot")
	put("model.snapshot_s", s, "s")
	put("model.snapshot_calls", calls, "count")
	put("model.snapshot_mb", units/1e6, "MB")
	ck := tr.total("serve.checkpoint")
	kb := 0.0
	if ck.calls > 0 {
		kb = float64(ck.units) / float64(ck.calls) / 1e3
	}
	put("serve.checkpoint_kb", kb, "KB")

	for _, ep := range []string{"create", "suggestions", "observations", "snapshot", "result", "delete"} {
		put("serve.http_"+ep+"_p50_s", tr.percentile("serve.http_"+ep, 50), "s")
	}
	_, calls, _ = per("serve.http_requests")
	put("serve.http_requests", calls, "count")
	useful := 0.0
	if polls := tr.total("serve.poll").calls; polls > 0 {
		useful = float64(tr.total("serve.poll_useful").calls) / float64(polls)
	}
	put("serve.poll_useful_share", useful, "ratio")
	put("serve.round_p99_s", tr.percentile("serve.round", 99), "s")
	put("serve.backpressure_429s", float64(tr.total("serve.backpressure_429s").calls), "count")

	p50, p99 := r.w.serverSteps(ph)
	_, _, steps := per("serve.steps")
	put("serve.steps", steps, "count")
	put("serve.step_p50_s", p50, "s")
	put("serve.step_p99_s", p99, "s")

	s, _, _ = per("core.run")
	put("core.run_s", s, "s")
	s, _, _ = per("core.self")
	put("core.self_s", s, "s")
	_, _, units = per("core.rounds")
	put("core.rounds", units, "count")
	_, _, units = per("evaluator.observations")
	put("evaluator.observations", units, "count")
	s, _, _ = per("tuner.search")
	put("tuner.search_s", s, "s")
	s, _, _ = per("tuner.self")
	put("tuner.self_s", s, "s")
	_, _, units = per("measure.runs")
	put("measure.runs", units, "count")
	_, _, units = per("measure.compiles")
	put("measure.compiles", units, "count")

	put("go.gc_cycles", ph.perSession(float64(ph.used.gc)), "count")
	put("go.gc_pause_s", ph.perSession(float64(ph.used.pauseNS)/1e9), "s")
	over := 0.0
	if base := median(r.plain.sessions); base > 0 {
		over = median(ph.sessions)/base - 1
	}
	put("trace.overhead_share", over, "ratio")
	return r.finish(m)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// finish adds the failure share and the verdict.
func (r *report) finish(m map[string]metric) *result {
	attempted, failed := 0, 0
	for _, ph := range r.phases() {
		attempted += ph.attempted
		failed += ph.failed
	}
	if r.ph.tr != nil {
		m["failed_share"] = metric{float64(failed) / float64(max(1, attempted)), "ratio"}
	}
	keys, _ := r.w.keys()
	correct := failed == 0 && len(r.ph.sessions) > 0 && len(r.outcomes()) == keys
	for _, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			correct = false
		}
	}
	return &result{Correct: correct, Attempted: max(1, attempted), Failed: failed, Metrics: m}
}

// detail prints the run's machine, configuration, per-key outcomes and
// failures as JSON lines.
func (r *report) detail(out io.Writer) {
	enc := json.NewEncoder(out)
	machine := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"workload":   r.name,
		"seed":       r.seed,
		"setup_s":    r.setups,
		"sessions":   len(r.ph.sessions),
	}
	machine["session_median_s"] = median(r.ph.sessions)
	if r.plain != nil {
		machine["untraced_session_median_s"] = median(r.plain.sessions)
	}
	r.w.describe(machine)
	_ = enc.Encode(map[string]any{"machine": machine}) // stdout; a failed write shows as a missing result line
	outs := r.outcomes()
	keys := make([]string, 0, len(outs))
	for key := range outs {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		_ = enc.Encode(map[string]any{"key": key, "outcome": outs[key].q, "digest": digestHash(outs[key].digest)})
	}
	for _, ph := range r.phases() {
		if len(ph.failures) > 0 {
			_ = enc.Encode(map[string]any{"failures": ph.failures})
		}
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
