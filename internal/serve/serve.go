// Package serve hosts many named learner sessions — per-tenant,
// per-kernel — in one process: the multi-tenant tuning service of
// ROADMAP item 1. Each session is a step-wise core.Learner; a fair
// weighted round-robin scheduler interleaves single steps across every
// ready session, so thousands of tenants share a bounded set of
// scheduler workers instead of a goroutine-per-learner free-for-all.
//
// Two observation feeds exist per session: "simulated" measures the
// §4.5 dataset oracle in-process, and "remote" publishes per-round
// suggestions that external agents measure and post back (the mobile
// fleet deployment of Mpeis et al.) through a bounded queue with 429
// backpressure.
//
// Determinism contract: each session's learner is stepped by at most
// one scheduler worker at a time and draws from its own seeded
// streams, so a session's results are bit-identical regardless of how
// many other sessions ran, in what order the scheduler interleaved
// them, or how many scheduler workers the server uses. Cross-session
// interleaving affects wall-clock only.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"alic/internal/core"
	"alic/internal/dataset"
	"alic/internal/evaluator"
	"alic/internal/model"
	"alic/internal/space"
)

// Sentinel errors of the serving layer; assert with errors.Is.
var (
	// ErrServerClosed reports an operation on a closed server.
	ErrServerClosed = errors.New("serve: server closed")
	// ErrNotFound reports an unknown tenant/session name.
	ErrNotFound = errors.New("serve: session not found")
	// ErrExists reports a duplicate session name within a tenant.
	ErrExists = errors.New("serve: session already exists")
	// ErrSessionLimit reports the per-tenant or server-wide session cap.
	ErrSessionLimit = errors.New("serve: session limit reached")
	// ErrBadSpec reports an invalid session spec.
	ErrBadSpec = errors.New("serve: invalid session spec")
	// ErrQueueFull reports a full remote-observation queue — the
	// backpressure signal (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("serve: observation queue full")
	// ErrNotAccepting reports observations posted to a session that
	// has stopped (budget exhausted, done, failed, or deleted).
	ErrNotAccepting = errors.New("serve: session not accepting observations")
	// ErrNotRemote reports a remote-only operation on a simulated
	// session.
	ErrNotRemote = errors.New("serve: not a remote session")
	// ErrBadObservation reports a malformed observation post.
	ErrBadObservation = errors.New("serve: bad observation")
	// ErrNotDone reports a result request on an unfinished session.
	ErrNotDone = errors.New("serve: session not done")
)

// Observation source names accepted in SessionSpec.Source.
const (
	SourceSimulated = "simulated"
	SourceRemote    = "remote"
)

// Serving defaults and caps.
const (
	defaultPoolSize  = 192
	defaultTestFrac  = 4 // test set = pool/4
	defaultNInit     = 3
	defaultNObs      = 5
	defaultNCand     = 16
	defaultRounds    = 10
	defaultParticles = 32
	defaultQueueCap  = 256
	maxPoolSize      = 4096
	maxRounds        = 4096
	maxTenantWeight  = 64
	// maxNObs caps nobs: buildSession generates (pool_size+test)×nobs
	// observations inside the create request. The paper uses 35.
	maxNObs = 64
)

// Options configures a Server.
type Options struct {
	// Workers is the number of scheduler workers stepping sessions
	// (0 = GOMAXPROCS). Learner results do not depend on it.
	Workers int
	// MaxSessions caps live sessions server-wide (0 = 16384).
	MaxSessions int
	// MaxSessionsPerTenant caps live sessions per tenant (0 = 4096).
	MaxSessionsPerTenant int
	// TenantWeights seeds per-tenant scheduling weights (default 1;
	// clamped to 1..64). SessionSpec.Weight can update them later.
	TenantWeights map[string]int
	// CheckpointDir, when non-empty, makes serving crash-safe: every
	// session is periodically persisted to <dir>/<tenant>~<name>.ckpt
	// with atomic temp-file+rename writes, and Server.Recover restores
	// the whole fleet from the directory on startup. See checkpoint.go.
	CheckpointDir string
	// CheckpointEvery is the per-session checkpoint cadence in
	// scheduler steps (default 1 = after every step). Terminal
	// transitions always checkpoint regardless of cadence. Larger
	// values trade recovery freshness for write amplification; a crash
	// loses at most CheckpointEvery-1 steps per session, which recovery
	// then re-runs bit-identically.
	CheckpointEvery int
}

// Stats is the server-wide counter snapshot.
type Stats struct {
	Sessions      int     `json:"sessions"`
	Active        int     `json:"active"`
	Completed     int64   `json:"completed"`
	Failed        int64   `json:"failed"`
	Steps         int64   `json:"steps"`
	StepP50Millis float64 `json:"step_p50_ms"`
	StepP99Millis float64 `json:"step_p99_ms"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// CheckpointErrors counts failed checkpoint writes (the previous
	// complete checkpoint of the affected session stays in place).
	CheckpointErrors int64 `json:"checkpoint_errors,omitempty"`
}

// Server is the multi-tenant session host.
type Server struct {
	opts  Options
	sched *scheduler

	mu       sync.Mutex
	sessions map[string]*Session
	byTenant map[string]int
	datasets map[dsKey]*dataset.Dataset
	closed   bool

	start        time.Time
	completed    atomic.Int64
	failed       atomic.Int64
	ckptFailures atomic.Int64
}

// dsKey identifies a shareable dataset: sessions with the same space,
// seed, and shape read the same immutable corpus.
type dsKey struct {
	space    string
	seed     uint64
	nConfigs int
	nObs     int
	train    int
}

// NewServer starts a server and its scheduler workers.
func NewServer(opts Options) *Server {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = 16384
	}
	if opts.MaxSessionsPerTenant <= 0 {
		opts.MaxSessionsPerTenant = 4096
	}
	srv := &Server{
		opts:     opts,
		sessions: make(map[string]*Session),
		byTenant: make(map[string]int),
		datasets: make(map[dsKey]*dataset.Dataset),
		start:    time.Now(),
	}
	srv.sched = newScheduler(workers, opts.TenantWeights)
	if opts.CheckpointDir != "" {
		// Best-effort here; Recover and the first checkpoint write report
		// a directory that cannot be created.
		_ = os.MkdirAll(opts.CheckpointDir, 0o755)
	}
	return srv
}

// Close stops the scheduler and tears down every session. Idempotent.
func (srv *Server) Close() error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return ErrServerClosed
	}
	srv.closed = true
	all := make([]*Session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		all = append(all, s)
	}
	srv.mu.Unlock()
	srv.sched.close()
	for _, s := range all {
		s.shutdown()
	}
	return nil
}

// validName is the tenant/session naming rule: 1..64 chars of
// [a-zA-Z0-9._-].
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// parseSpec decodes one JSON session spec strictly: an unknown field
// or trailing data fails with ErrBadSpec naming the problem, so a
// field this build does not implement is never silently dropped. The
// create endpoint and checkpoint restore both decode through it.
func parseSpec(data []byte) (SessionSpec, error) {
	var spec SessionSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return spec, fmt.Errorf("%w: trailing data after the spec", ErrBadSpec)
	}
	return spec, nil
}

// normalize fills spec defaults and validates ranges.
func normalize(spec SessionSpec) (SessionSpec, error) {
	if !validName(spec.Tenant) {
		return spec, fmt.Errorf("%w: bad tenant name %q", ErrBadSpec, spec.Tenant)
	}
	if !validName(spec.Name) {
		return spec, fmt.Errorf("%w: bad session name %q", ErrBadSpec, spec.Name)
	}
	// Space supersedes Kernel; the legacy field keeps working as an
	// alias and both are kept in sync so old clients reading either
	// field of an echoed spec see the same name.
	if spec.Space == "" {
		spec.Space = spec.Kernel
	}
	if spec.Kernel == "" {
		spec.Kernel = spec.Space
	}
	if spec.Space == "" {
		return spec, fmt.Errorf("%w: missing space (or legacy kernel) name", ErrBadSpec)
	}
	if spec.Kernel != spec.Space {
		return spec, fmt.Errorf("%w: space %q conflicts with legacy kernel field %q",
			ErrBadSpec, spec.Space, spec.Kernel)
	}
	if spec.Source == "" {
		spec.Source = SourceSimulated
	}
	if spec.Source != SourceSimulated && spec.Source != SourceRemote {
		return spec, fmt.Errorf("%w: unknown source %q", ErrBadSpec, spec.Source)
	}
	if spec.PoolSize == 0 {
		spec.PoolSize = defaultPoolSize
	}
	if spec.PoolSize < 8 || spec.PoolSize > maxPoolSize {
		return spec, fmt.Errorf("%w: pool_size %d outside [8, %d]", ErrBadSpec, spec.PoolSize, maxPoolSize)
	}
	if spec.NInit == 0 {
		spec.NInit = defaultNInit
	}
	if spec.NObs == 0 {
		spec.NObs = defaultNObs
	}
	if spec.NCand == 0 {
		spec.NCand = defaultNCand
	}
	if spec.MaxRounds == 0 {
		spec.MaxRounds = defaultRounds
	}
	if spec.MaxRounds < spec.NInit || spec.MaxRounds > maxRounds {
		return spec, fmt.Errorf("%w: max_rounds %d outside [ninit=%d, %d]", ErrBadSpec, spec.MaxRounds, spec.NInit, maxRounds)
	}
	if spec.NInit < 1 || spec.NObs < 1 || spec.NCand < 1 {
		return spec, fmt.Errorf("%w: ninit/nobs/ncand must be >= 1", ErrBadSpec)
	}
	if spec.NInit > spec.PoolSize {
		return spec, fmt.Errorf("%w: ninit %d exceeds pool_size %d", ErrBadSpec, spec.NInit, spec.PoolSize)
	}
	if spec.NObs > maxNObs {
		return spec, fmt.Errorf("%w: nobs %d exceeds %d", ErrBadSpec, spec.NObs, maxNObs)
	}
	if spec.NCand > spec.PoolSize {
		return spec, fmt.Errorf("%w: ncand %d exceeds pool_size %d", ErrBadSpec, spec.NCand, spec.PoolSize)
	}
	if spec.CostBudget < 0 {
		return spec, fmt.Errorf("%w: negative cost_budget", ErrBadSpec)
	}
	if spec.Particles == 0 {
		spec.Particles = defaultParticles
	}
	if spec.Particles < 1 || spec.Particles > 4096 {
		return spec, fmt.Errorf("%w: particles %d outside [1, 4096]", ErrBadSpec, spec.Particles)
	}
	if spec.QueueCap == 0 {
		spec.QueueCap = defaultQueueCap
	}
	if spec.QueueCap < 1 {
		return spec, fmt.Errorf("%w: negative queue_cap", ErrBadSpec)
	}
	// A round is only folded once every pending observation is posted,
	// so a queue smaller than the seeding round's demand (the largest
	// round) could never become ready — raise the cap to keep the
	// backpressure bound above the deadlock line.
	if min := spec.NInit * spec.NObs; spec.QueueCap < min {
		spec.QueueCap = min
	}
	if spec.Weight < 0 || spec.Weight > maxTenantWeight {
		return spec, fmt.Errorf("%w: weight %d outside [0, %d]", ErrBadSpec, spec.Weight, maxTenantWeight)
	}
	return spec, nil
}

// CreateSession registers and starts a session. The returned session
// is already scheduled; remote sessions publish their first
// suggestions after their first scheduler step.
func (srv *Server) CreateSession(spec SessionSpec) (*Session, error) {
	spec, err := normalize(spec)
	if err != nil {
		return nil, err
	}
	s, err := srv.buildSession(spec)
	if err != nil {
		return nil, err
	}
	if err := srv.register(s, spec); err != nil {
		return nil, err
	}
	if srv.checkpointing() {
		// Cover the create-to-first-step window: a crash before the
		// session ever steps must not lose it. The session is not yet
		// schedulable here, so this write owns the learner.
		srv.writeCheckpoint(s, StatusRunning, nil)
	}
	s.maybeWake()
	return s, nil
}

// register inserts a built session into the registry, enforcing the
// server-wide and per-tenant caps. On error the session's learner is
// closed.
func (srv *Server) register(s *Session, spec SessionSpec) error {
	key := spec.Tenant + "/" + spec.Name

	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		s.learner.Close()
		return ErrServerClosed
	}
	if _, ok := srv.sessions[key]; ok {
		srv.mu.Unlock()
		s.learner.Close()
		return fmt.Errorf("%w: %s", ErrExists, key)
	}
	if len(srv.sessions) >= srv.opts.MaxSessions {
		srv.mu.Unlock()
		s.learner.Close()
		return fmt.Errorf("%w: server cap %d", ErrSessionLimit, srv.opts.MaxSessions)
	}
	if srv.byTenant[spec.Tenant] >= srv.opts.MaxSessionsPerTenant {
		srv.mu.Unlock()
		s.learner.Close()
		return fmt.Errorf("%w: tenant cap %d", ErrSessionLimit, srv.opts.MaxSessionsPerTenant)
	}
	srv.sessions[key] = s
	srv.byTenant[spec.Tenant]++
	// Stamp the fairness clock at registration: per-session service
	// time is DoneStep - CreatedStep, independent of how long the rest
	// of the fleet took to create.
	s.createdStep = srv.sched.steps.Load()
	srv.mu.Unlock()

	if spec.Weight > 0 {
		srv.sched.setWeight(spec.Tenant, spec.Weight)
	}
	return nil
}

// buildSession constructs the learner stack for a spec.
func (srv *Server) buildSession(spec SessionSpec) (*Session, error) {
	sp, err := space.ByName(spec.Space)
	if err != nil {
		// The registry error lists every registered space, so a typo in
		// the spec comes back actionable.
		return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	if space.IsLive(sp) {
		return nil, fmt.Errorf("%w: space %q measures by executing commands; the serving layer only hosts simulated spaces", ErrBadSpec, spec.Space)
	}
	ds, err := srv.dataset(sp, spec)
	if err != nil {
		return nil, err
	}

	opts := core.DefaultOptions()
	opts.NInit = spec.NInit
	opts.NObs = spec.NObs
	opts.NCand = spec.NCand
	opts.NMax = spec.MaxRounds
	opts.Batch = 1
	opts.EvalEvery = 0
	opts.Seed = spec.Seed
	opts.StopCost = spec.CostBudget
	opts.EvalWorkers = 1 // sessions are small; parallelism comes from the fleet
	opts.Space = spec.Space
	opts.Tree.Particles = spec.Particles
	opts.Tree.ScoreParticles = spec.Particles / 4
	if opts.Tree.ScoreParticles < 1 {
		opts.Tree.ScoreParticles = 1
	}
	if spec.Model != "" {
		b, err := model.ByName(spec.Model)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
		}
		opts.Model = b
	}
	if spec.Plan != "" {
		p, err := core.PlanByName(spec.Plan)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
		}
		opts.Plan = p
	}
	if spec.Scorer != "" {
		a, err := core.AcquisitionByName(spec.Scorer)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
		}
		opts.Scorer = a
	}

	var remote *RemoteSource
	var src evaluator.Source
	if spec.Source == SourceRemote {
		remote = NewRemoteSource(spec.QueueCap)
		src = remote
	} else {
		dsrc, err := evaluator.NewDatasetSource(ds)
		if err != nil {
			return nil, err
		}
		src = dsrc
	}
	pool := core.SlicePool(ds.TrainFeatures())
	l, err := core.New(opts, pool, src, ds.TestRMSE())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return &Session{
		srv:     srv,
		spec:    spec,
		key:     spec.Tenant + "/" + spec.Name,
		ds:      ds,
		learner: l,
		remote:  remote,
		poolX:   pool,
		status:  StatusRunning,
		created: time.Now(),
		doneCh:  make(chan struct{}),
	}, nil
}

// dataset returns the corpus for a spec, shared across sessions with
// the same space, seed, and shape (the dataset is immutable after
// generation and measures its pool through a concurrency-safe
// measurer, so concurrent sessions read it freely).
func (srv *Server) dataset(sp space.Space, spec SessionSpec) (*dataset.Dataset, error) {
	testSize := spec.PoolSize / defaultTestFrac
	if testSize < 8 {
		testSize = 8
	}
	key := dsKey{
		space:    spec.Space,
		seed:     spec.Seed,
		nConfigs: spec.PoolSize + testSize,
		nObs:     spec.NObs,
		train:    spec.PoolSize,
	}
	srv.mu.Lock()
	if ds, ok := srv.datasets[key]; ok {
		srv.mu.Unlock()
		return ds, nil
	}
	srv.mu.Unlock()
	// Generate outside the lock — it is the expensive part — and
	// tolerate a racing duplicate: last writer wins, both corpora are
	// identical by seeded determinism.
	ds, err := dataset.Generate(sp, dataset.Options{
		NConfigs:   key.nConfigs,
		NObs:       key.nObs,
		TrainCount: key.train,
		Seed:       key.seed,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	srv.mu.Lock()
	if prev, ok := srv.datasets[key]; ok {
		ds = prev
	} else {
		srv.datasets[key] = ds
	}
	srv.mu.Unlock()
	return ds, nil
}

// GetSession looks up one session.
func (srv *Server) GetSession(tenant, name string) (*Session, error) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	s, ok := srv.sessions[tenant+"/"+name]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, tenant, name)
	}
	return s, nil
}

// ListSessions snapshots a tenant's sessions (all tenants when tenant
// is empty), sorted by key.
func (srv *Server) ListSessions(tenant string) []SessionInfo {
	srv.mu.Lock()
	var picked []*Session
	for _, s := range srv.sessions {
		if tenant == "" || s.spec.Tenant == tenant {
			picked = append(picked, s)
		}
	}
	srv.mu.Unlock()
	sort.Slice(picked, func(i, j int) bool { return picked[i].key < picked[j].key })
	out := make([]SessionInfo, len(picked))
	for i, s := range picked {
		out[i] = s.Info()
	}
	return out
}

// DeleteSession tears a session down and removes it from the registry.
func (srv *Server) DeleteSession(tenant, name string) error {
	key := tenant + "/" + name
	srv.mu.Lock()
	s, ok := srv.sessions[key]
	if !ok {
		srv.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	delete(srv.sessions, key)
	srv.byTenant[tenant]--
	srv.mu.Unlock()
	s.mu.Lock()
	s.dropCkpt = true
	s.mu.Unlock()
	s.shutdown()
	srv.removeCheckpoint(tenant, name)
	return nil
}

// Stats snapshots the server counters.
func (srv *Server) Stats() Stats {
	srv.mu.Lock()
	n := len(srv.sessions)
	active := 0
	for _, s := range srv.sessions {
		s.mu.Lock()
		if !s.status.terminal() {
			active++
		}
		s.mu.Unlock()
	}
	srv.mu.Unlock()
	ps := srv.sched.lat.percentiles(50, 99)
	return Stats{
		Sessions:         n,
		Active:           active,
		Completed:        srv.completed.Load(),
		Failed:           srv.failed.Load(),
		Steps:            srv.sched.steps.Load(),
		StepP50Millis:    float64(ps[0]) / 1e6,
		StepP99Millis:    float64(ps[1]) / 1e6,
		UptimeSeconds:    time.Since(srv.start).Seconds(),
		CheckpointErrors: srv.ckptFailures.Load(),
	}
}
