package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"alic"
	"alic/internal/measure"
	"alic/internal/serve"
)

// servedClients is the number of closed-loop clients of a served
// workload.
const servedClients = 2

// agentPoll is how long an agent sleeps before asking again when its
// session has no round pending.
const agentPoll = 100 * time.Microsecond

// servedConfig sizes a served workload. Its sessions are remote: the
// clients are agents that measure every suggestion with the kernel's
// own measurer and post the values back, so the sessions learn the
// real kernel.
type servedConfig struct {
	// Spec is every session's spec; name, tenant and seed vary.
	Spec serve.SessionSpec
	// Seeds are the session seeds; tenants cycle with them.
	Seeds seedPlan
	// Checkpoint makes agents fetch their session's checkpoint in every
	// round, and check that the final one restores.
	Checkpoint bool
	// Target is the pinned test RMSE of cost_to_target_s; a session's
	// cost counts as reaching it when its final RMSE is at or below.
	Target float64
}

func servedRemote() servedConfig {
	return servedConfig{
		Spec: serve.SessionSpec{
			Space: "mm", Source: serve.SourceRemote,
			PoolSize: 1000, MaxRounds: 200, Particles: 128, NCand: 64,
		},
		Seeds:  seedPlan{Panel: 40, PerSeed: 2},
		Target: servedTargets["served-remote"],
	}
}

// servedCheckpointed: sessions checkpointed in every round. An agent
// fetches the checkpoint with its round's suggestions in hand, so the
// number of checkpoints follows from the spec, not from the clock. The
// checkpoints come through the snapshot endpoint, the container a
// checkpoint directory would receive, not through a checkpoint
// directory: that would be the checkout's disk, whose fsync stalls
// moved run medians by 30-60% however rarely it was written.
func servedCheckpointed() servedConfig {
	return servedConfig{
		Spec: serve.SessionSpec{
			Space: "mm", Source: serve.SourceRemote,
			PoolSize: 1000, MaxRounds: 60, Particles: 64, NCand: 64,
		},
		Seeds:      seedPlan{Panel: 40, PerSeed: 2},
		Checkpoint: true,
		Target:     servedTargets["served-checkpointed"],
	}
}

// servedTargets pin the served workloads' target RMSEs (seconds): 1.2
// times the median final RMSE of their spec over seeds 1-200.
var servedTargets = map[string]float64{
	"served-remote":       0.0043,
	"served-checkpointed": 0.0057,
}

// served runs sessions against a serve.Server on loopback HTTP.
type served struct {
	cfg        servedConfig
	panel, own []uint64
	seeds      []uint64 // panel, then own
	sp         alic.Space
	meas       map[uint64]*measure.Session

	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	base   string
	client *http.Client

	// createS is the last set-up's create-request time per seed: the
	// server generates each seed's corpus inside that request.
	createS []float64
	// ref is each seed's deterministic outcome as a simulated session
	// through the in-process API.
	ref map[uint64]string
}

func newServed(cfg servedConfig, seed uint64) (*served, error) {
	sp, err := alic.SpaceByName(cfg.Spec.Space)
	if err != nil {
		return nil, err
	}
	w := &served{cfg: cfg, sp: sp, meas: make(map[uint64]*measure.Session)}
	w.panel, w.own = cfg.Seeds.seeds(seed)
	w.seeds = append(append([]uint64(nil), w.panel...), w.own...)
	for _, s := range w.seeds {
		if w.meas[s], err = measure.NewSession(sp, s); err != nil {
			return nil, err
		}
	}
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * servedClients}}
	return w, nil
}

// setup starts a fresh server and creates and deletes one session per
// seed, which fills the server's corpus cache.
func (w *served) setup() error {
	w.close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = serve.NewServer(serve.Options{})
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan struct{})
	go func(hs *http.Server, done chan struct{}) {
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
		close(done)
	}(w.hs, w.served)
	w.base = "http://" + ln.Addr().String()

	ph := newPhase(nil)
	w.createS = w.createS[:0]
	for i, seed := range w.seeds {
		tenant, name := fmt.Sprintf("t%d", i+1), fmt.Sprintf("setup-%d", seed)
		t0 := time.Now()
		if !w.call(ph, http.MethodPost, sessionsPath(tenant), w.spec(seed, name, false), nil, "create") {
			return fmt.Errorf("set-up: %s", strings.Join(ph.failures, "; "))
		}
		w.createS = append(w.createS, time.Since(t0).Seconds())
		if !w.call(ph, http.MethodDelete, sessionPath(tenant, name), nil, nil, "delete") {
			return fmt.Errorf("set-up: %s", strings.Join(ph.failures, "; "))
		}
	}
	return nil
}

// close stops the server and waits for its goroutines.
func (w *served) close() {
	if w.srv == nil {
		return
	}
	// No request is in flight here. Close rather than Shutdown: Shutdown
	// waits up to 5 s for a connection the client dialled but never used.
	_ = w.hs.Close() // the listener's close error is of no interest at teardown
	<-w.served
	_ = w.srv.Close() // only ErrServerClosed, and this server is open
	w.client.CloseIdleConnections()
	w.srv = nil
}

// reference runs each seed's spec as a simulated session through the
// in-process serve API, the outcome every remote session must match.
// The sessions run side by side on the server's workers.
func (w *served) reference() error {
	w.ref = make(map[uint64]string)
	var sessions []*serve.Session
	for _, seed := range w.seeds {
		spec := w.spec(seed, fmt.Sprintf("ref-%d", seed), false)
		spec.Tenant = "ref"
		spec.Source = serve.SourceSimulated
		s, err := w.srv.CreateSession(spec)
		if err != nil {
			return err
		}
		sessions = append(sessions, s)
	}
	for i, s := range sessions {
		<-s.Done()
		res, err := s.Result()
		if err != nil {
			return err
		}
		w.ref[w.seeds[i]] = servedDigest(res)
		if err := w.srv.DeleteSession("ref", res.Name); err != nil {
			return err
		}
	}
	return nil
}

// spec is the session spec for one seed. Traced sessions name the
// dynatree backend explicitly, so the server builds them through the
// registry, where the traced process has put the tracing builder.
func (w *served) spec(seed uint64, name string, traced bool) serve.SessionSpec {
	spec := w.cfg.Spec
	spec.Name = name
	spec.Seed = seed
	if traced {
		spec.Model = "dynatree"
	}
	return spec
}

// treeConfig is the forest configuration the server derives from the
// spec (serve.buildSession): the learner defaults with the spec's
// particles and a quarter of them for scoring.
func (w *served) treeConfig() alic.ModelConfig {
	cfg := alic.DefaultLearnOptions().Learner.Tree
	cfg.Particles = w.cfg.Spec.Particles
	cfg.ScoreParticles = max(1, w.cfg.Spec.Particles/4)
	return cfg
}

func (w *served) keys() (total, perSession int) { return len(w.seeds), 1 }

func (w *served) sessionSeeds() (panel, own []uint64) { return w.panel, w.own }

// datasetCost counts the corpora the server generated in the last
// set-up's create requests: pool plus a quarter of it for testing,
// five observations each (serve's defaults).
func (w *served) datasetCost() (float64, int) {
	pool := w.cfg.Spec.PoolSize
	return sum(w.createS), len(w.seeds) * (pool + max(8, pool/4)) * 5
}

func (w *served) serverSteps(ph *phase) (p50, p99 float64) {
	st := w.stats(ph)
	return st.StepP50Millis / 1e3, st.StepP99Millis / 1e3
}

func (w *served) describe(m map[string]any) {
	m["config"] = w.cfg
	m["seeds"] = map[string][]uint64{"panel": w.panel, "own": w.own}
	if w.cfg.Checkpoint {
		m["checkpoint_store"] = "memory: GET .../snapshot, no checkpoint directory"
	}
}

// run drives the closed-loop clients over seeds until the phase ends; a
// traced phase also counts the server's scheduler steps.
func (w *served) run(ph *phase, seeds []uint64) {
	var before serve.Stats
	if ph.tr != nil {
		before = w.stats(ph)
	}
	tenant := make(map[uint64]string)
	for i, seed := range w.seeds {
		tenant[seed] = fmt.Sprintf("t%d", i+1)
	}
	cycles(ph, seeds, servedClients, func(n int, seed uint64) {
		w.session(ph, tenant[seed], fmt.Sprintf("s%d", n), seed)
	})
	if ph.tr != nil {
		ph.tr.add("serve.steps", 0, int(w.stats(ph).Steps-before.Steps))
	}
}

// stats reads the server's counters.
func (w *served) stats(ph *phase) serve.Stats {
	var st serve.Stats
	w.call(ph, http.MethodGet, "/v1/stats", nil, &st, "stats")
	return st
}

// session is one agent's session: create it, answer every round of
// suggestions with measurements of the real kernel (fetching the
// session's checkpoint first, when checkpointed), fetch the result and
// delete it.
func (w *served) session(ph *phase, tenant, name string, seed uint64) {
	tr := ph.tr
	path := sessionPath(tenant, name)
	t0 := time.Now()
	if !w.call(ph, http.MethodPost, sessionsPath(tenant), w.spec(seed, name, tr != nil), nil, "create") {
		return
	}
	defer w.call(ph, http.MethodDelete, path, nil, nil, "delete")
	meas := w.meas[seed]
	var lastPost time.Time
	rounds, checkpoints := 0, 0
	for {
		var sug serve.SuggestionList
		if !w.call(ph, http.MethodGet, path+"/suggestions", nil, &sug, "suggestions") {
			return
		}
		inHand := time.Now()
		var posts []serve.ObservationPost
		for _, s := range sug.Suggestions {
			for ord := max(s.First, s.Posted); ord < s.First+s.Count; ord++ {
				o, err := agentMeasure(meas, s.Config, ord)
				if err != nil {
					ph.attempt()
					ph.fail("measuring %v: %v", s.Config, err)
					return
				}
				o.Item = s.Item
				posts = append(posts, o)
			}
		}
		tr.add("serve.poll", 0, 0)
		if len(posts) == 0 {
			if ended(sug.Status) {
				break
			}
			time.Sleep(agentPoll)
			continue
		}
		rounds++
		tr.add("serve.poll_useful", 0, 1)
		tr.add("measure.runs", 0, len(posts))
		for _, o := range posts {
			if o.Compile != 0 {
				tr.add("measure.compiles", 0, 1)
			}
		}
		if !lastPost.IsZero() {
			ph.round(inHand.Sub(lastPost))
			tr.sample("serve.round", inHand.Sub(lastPost))
		}
		if w.cfg.Checkpoint && w.checkpoint(ph, path) != nil {
			checkpoints++
		}
		body := struct {
			Observations []serve.ObservationPost `json:"observations"`
		}{posts}
		if !w.call(ph, http.MethodPost, path+"/observations", body, nil, "observations") {
			time.Sleep(agentPoll)
		}
		lastPost = time.Now()
	}
	digest, ok := w.finish(ph, tenant, name, seed, t0, checkpoints)
	if !ok || !w.cfg.Checkpoint {
		return
	}
	var err error
	if checkpoints != rounds {
		err = fmt.Errorf("%s/%s: %d checkpoints in %d rounds", tenant, name, checkpoints, rounds)
	}
	ph.check(err)
	w.checkRestore(ph, tenant, name, digest)
}

// checkpoint fetches a session's checkpoint, nil when that failed.
func (w *served) checkpoint(ph *phase, path string) []byte {
	var ckpt []byte
	if !w.call(ph, http.MethodGet, path+"/snapshot", nil, &ckpt, "snapshot") {
		return nil
	}
	ph.tr.add("serve.checkpoint", 0, len(ckpt))
	return ckpt
}

// checkRestore restores a done session's final checkpoint under
// another name; the restored session must report the same result.
func (w *served) checkRestore(ph *phase, tenant, name, digest string) {
	ckpt := w.checkpoint(ph, sessionPath(tenant, name))
	if ckpt == nil {
		return
	}
	restored := sessionPath(tenant, name+"-restored")
	if !w.call(ph, http.MethodPost, restored+"/restore", ckpt, nil, "restore") {
		return
	}
	defer w.call(ph, http.MethodDelete, restored, nil, nil, "delete")
	var res serve.SessionResult
	if w.call(ph, http.MethodGet, restored+"/result", nil, &res, "result") {
		var err error
		if got := servedDigest(&res); got != digest {
			err = fmt.Errorf("%s/%s: restored checkpoint reports %s, the session %s", tenant, name, got, digest)
		}
		ph.check(err)
	}
}

// ended reports whether a session status is terminal.
func ended(st serve.Status) bool {
	return st == serve.StatusDone || st == serve.StatusFailed || st == serve.StatusClosed
}

// agentMeasure is what a measuring agent reports for observation ord of
// cfg: the kernel's runtime at that noise ordinal, and the compile
// cost on the first one.
func agentMeasure(meas *measure.Session, cfg alic.Config, ord int) (serve.ObservationPost, error) {
	v, err := meas.At(cfg, ord)
	if err != nil {
		return serve.ObservationPost{}, err
	}
	o := serve.ObservationPost{Value: v}
	if ord == 0 {
		if o.Compile, err = meas.CompileCost(cfg); err != nil {
			return serve.ObservationPost{}, err
		}
	}
	return o, nil
}

// finish fetches a done session's result, ends its timing, and checks
// and records its outcome: the session must have ended by its budget
// and match its simulated reference. It returns the result's digest,
// and whether the session ended as it should.
func (w *served) finish(ph *phase, tenant, name string, seed uint64, t0 time.Time, checkpoints int) (string, bool) {
	var res serve.SessionResult
	ok := w.call(ph, http.MethodGet, sessionPath(tenant, name)+"/result", nil, &res, "result")
	ph.session(time.Since(t0))
	ph.attempt()
	if !ok {
		ph.fail("%s/%s: no result", tenant, name)
		return "", false
	}
	if res.Status != serve.StatusDone || res.StoppedBy != "budget" || res.Acquired != w.cfg.Spec.MaxRounds {
		ph.fail("%s/%s: %s (stopped by %q after %d acquisitions) %s", tenant, name, res.Status, res.StoppedBy, res.Acquired, res.Error)
		return "", false
	}
	ph.tr.add("core.rounds", 0, res.Acquired)
	ph.tr.add("evaluator.observations", 0, res.Observations)
	digest := servedDigest(&res)
	var err error
	if digest != w.ref[seed] {
		err = fmt.Errorf("seed %d: remote session differs from the same spec simulated in-process", seed)
	}
	ph.check(err)
	speedup, err := trueSpeedup(w.meas[seed], w.sp, res.Winner.Config)
	if err == nil {
		err = w.sp.Check(res.Winner.Config)
	}
	ph.check(err)
	if err != nil {
		return digest, false
	}
	ph.output("seed-"+strconv.FormatUint(seed, 10), quality{
		RMSE:         res.FinalError,
		Cost:         res.Cost,
		CostToTarget: res.Cost,
		Reached:      res.FinalError <= w.cfg.Target,
		Speedup:      speedup,
		Winner:       fmt.Sprint(res.Winner.Config),
		Checkpoints:  checkpoints,
	}, fmt.Sprintf("%s | %d checkpoints", digest, checkpoints))
	return digest, true
}

// servedDigest renders every deterministic output of a session result
// exactly; the source and step counts are left out, since a remote
// session takes two scheduler steps per round.
func servedDigest(res *serve.SessionResult) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	return fmt.Sprintf("%s %s %d %d %d %d %s | %d %v %s",
		f(res.FinalError), f(res.Cost), res.Acquired, res.Observations, res.Unique, res.Revisits, res.StoppedBy,
		res.Winner.Item, res.Winner.Config, f(res.Winner.Predicted))
}

func sessionsPath(tenant string) string { return "/v1/tenants/" + tenant + "/sessions" }

func sessionPath(tenant, name string) string { return sessionsPath(tenant) + "/" + name }

// call makes one HTTP request with in as its body (JSON, or raw bytes
// for a []byte), decoding a 2xx response into out (JSON, or the raw
// body for a *[]byte). Every request counts as an operation; a
// transport error or a non-2xx status (429 included) counts as failed.
func (w *served) call(ph *phase, method, path string, in, out any, layer string) bool {
	var body io.Reader
	if b, ok := in.([]byte); ok {
		body = bytes.NewReader(b)
	} else if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			ph.attempt()
			ph.fail("encoding %s body: %v", layer, err)
			return false
		}
		body = bytes.NewReader(b)
	}
	ph.attempt()
	req, err := http.NewRequest(method, w.base+path, body)
	if err != nil {
		ph.fail("%s %s: %v", method, path, err)
		return false
	}
	t0 := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		ph.fail("%s %s: %v", method, path, err)
		return false
	}
	// Sized to the body, so a checkpoint is read without regrowing.
	var buf bytes.Buffer
	buf.Grow(int(max(0, resp.ContentLength)) + bytes.MinRead)
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	data := buf.Bytes()
	ph.tr.sample("serve.http_"+layer, time.Since(t0))
	ph.tr.add("serve.http_requests", 0, 1)
	if err != nil {
		ph.fail("%s %s: reading body: %v", method, path, err)
		return false
	}
	if resp.StatusCode/100 != 2 {
		if resp.StatusCode == http.StatusTooManyRequests {
			ph.tr.add("serve.backpressure_429s", 0, 1)
		}
		ph.fail("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
		return false
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
	} else if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			ph.fail("%s %s: decoding: %v", method, path, err)
			return false
		}
	}
	return true
}
