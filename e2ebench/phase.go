package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quality is one (kernel, seed) pair's deterministic outcome: a pure
// function of the workload's spec and seed.
type quality struct {
	// RMSE is the final test-set RMSE in seconds.
	RMSE float64 `json:"final_rmse"`
	// Cost is the §4.3 profiling cost charged, in simulated seconds.
	Cost float64 `json:"profiling_cost_s"`
	// CostToTarget is the cost until the pinned target RMSE was first
	// reached; Reached is false when it never was (then the whole cost).
	CostToTarget float64 `json:"cost_to_target_s"`
	Reached      bool    `json:"target_reached"`
	// Speedup is the baseline's true runtime over the winner's.
	Speedup float64 `json:"tuned_speedup"`
	Winner  string  `json:"winner"`
	// Checkpoints is how many checkpoints the session's client took.
	Checkpoints int `json:"checkpoints,omitempty"`
}

// phase is one timed window of sessions. Workload clients report into
// it concurrently.
type phase struct {
	tr       *tracer
	deadline time.Time

	mu        sync.Mutex
	sessions  []float64 // seconds per completed session
	rounds    []float64 // seconds per round, as the workload defines it
	attempted int
	failed    int
	failures  []string
	outputs   map[string]output

	used usage
}

// output is the first deterministic outcome recorded for a key.
type output struct {
	q      quality
	digest string
}

func newPhase(tr *tracer) *phase {
	return &phase{tr: tr, outputs: make(map[string]output)}
}

// over reports whether the phase's time is up.
func (p *phase) over() bool { return !time.Now().Before(p.deadline) }

func (p *phase) session(d time.Duration) {
	p.mu.Lock()
	p.sessions = append(p.sessions, d.Seconds())
	p.mu.Unlock()
}

func (p *phase) round(d time.Duration) {
	p.mu.Lock()
	p.rounds = append(p.rounds, d.Seconds())
	p.mu.Unlock()
}

// attempt counts one operation.
func (p *phase) attempt() {
	p.mu.Lock()
	p.attempted++
	p.mu.Unlock()
}

// fail marks an attempted operation as failed.
func (p *phase) fail(format string, args ...any) {
	p.mu.Lock()
	p.failed++
	if len(p.failures) < 20 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
	p.mu.Unlock()
}

// check counts one correctness check, failed when err is not nil.
func (p *phase) check(err error) {
	p.attempt()
	if err != nil {
		p.fail("check: %v", err)
	}
}

// output records a key's deterministic outcome; a repeat of the key
// must reproduce the first one exactly.
func (p *phase) output(key string, q quality, digest string) {
	p.mu.Lock()
	first, seen := p.outputs[key]
	if !seen {
		p.outputs[key] = output{q: q, digest: digest}
	}
	p.mu.Unlock()
	if seen {
		var err error
		if first.digest != digest {
			err = fmt.Errorf("%s: repeated session diverged from the first one", key)
		}
		p.check(err)
	}
}

// usage is process resource use: a reading at a window boundary, or
// the sum of a phase's window deltas.
type usage struct {
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	gc      uint32
	pauseNS uint64
}

var processStart = time.Now()

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:    time.Since(processStart),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		gc:      ms.NumGC,
		pauseNS: ms.PauseTotalNs,
	}
}

// measure runs body as one timed window of the phase, ending once d
// has passed (and the workload's minimum of sessions has run).
func (p *phase) measure(d time.Duration, body func(*phase)) {
	p.deadline = time.Now().Add(d)
	a := readUsage()
	body(p)
	b := readUsage()
	p.used.wall += b.wall - a.wall
	p.used.cpu += b.cpu - a.cpu
	p.used.alloc += b.alloc - a.alloc
	p.used.gc += b.gc - a.gc
	p.used.pauseNS += b.pauseNS - a.pauseNS
}

// perSession divides a phase total by the sessions completed.
func (p *phase) perSession(x float64) float64 {
	if len(p.sessions) == 0 {
		return 0
	}
	return x / float64(len(p.sessions))
}

// aggregate folds the per-key outcomes into the workload's quality
// metrics: geometric means of RMSE and speedup, and mean costs per key
// summed over keysPerSession keys (the kernels one session tunes).
func aggregate(outs map[string]output, keysPerSession int) (rmse, cost, ctt, speedup float64) {
	keys := make([]string, 0, len(outs))
	for k := range outs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var lr, ls float64
	for _, k := range keys {
		q := outs[k].q
		lr += math.Log(q.RMSE)
		ls += math.Log(q.Speedup)
		cost += q.Cost
		ctt += q.CostToTarget
	}
	n := float64(len(keys))
	if n == 0 {
		return 0, 0, 0, 0
	}
	scale := float64(keysPerSession) / n
	return math.Exp(lr / n), cost * scale, ctt * scale, math.Exp(ls / n)
}

// seedPlan picks a run's session seeds: a panel of seeds 1..Panel
// that every run shares, and PerSeed more that only runs with the same
// workload seed share. Only panel sessions are timed, so timings move
// with the program rather than with which seeds a run drew; the
// per-seed sessions run once each after the timed window, so the
// outcomes checked and the quality metrics are a function of the
// workload seed too.
type seedPlan struct {
	Panel, PerSeed int
}

// seeds returns the panel and the per-seed session seeds of a run with
// workload seed seed.
func (p seedPlan) seeds(seed uint64) (panel, own []uint64) {
	for i := 1; i <= p.Panel; i++ {
		panel = append(panel, uint64(i))
	}
	for i := 1; i <= p.PerSeed; i++ {
		own = append(own, uint64(p.Panel)+uint64(p.PerSeed)*(seed-1)+uint64(i))
	}
	return panel, own
}

// cycles runs sessions from clients goroutines, each with the next
// session number n and seed seeds[n%len(seeds)], and stops at the end
// of the first whole cycle over seeds that ends after the phase's
// deadline. Every seed so gets the same number of sessions, at least
// one, and the mix of sessions behind a run's totals is the same in
// every run.
func cycles(ph *phase, seeds []uint64, clients int, session func(n int, seed uint64)) {
	var (
		mu   sync.Mutex
		next int
		stop = math.MaxInt
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stop == math.MaxInt && ph.over() {
			stop = max(1, (next+len(seeds)-1)/len(seeds)) * len(seeds)
		}
		if next >= stop {
			return 0, false
		}
		next++
		return next - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n, ok := take(); ok; n, ok = take() {
				session(n, seeds[n%len(seeds)])
			}
		}()
	}
	wg.Wait()
}

// digestHash is a short stable hash of a session's deterministic
// outputs, printed in the detail rows so that runs can be compared.
func digestHash(digest string) string {
	h := fnv.New64a()
	h.Write([]byte(digest))
	return fmt.Sprintf("%016x", h.Sum64())
}
