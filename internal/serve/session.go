package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"alic/internal/core"
	"alic/internal/dataset"
	"alic/internal/space"
)

// SessionSpec configures one hosted learner session. Zero-valued
// fields adopt serving defaults sized for fleets of small sessions;
// Space (or its legacy alias Kernel) is the only required field.
type SessionSpec struct {
	// Tenant namespaces the session; on the HTTP path it comes from
	// the URL, not the body.
	Tenant string `json:"tenant,omitempty"`
	// Name identifies the session within its tenant.
	Name string `json:"name"`
	// Space names the registered search space to tune ("mm",
	// "synthetic/needle", ...). Live (exec-backed) spaces are rejected.
	Space string `json:"space,omitempty"`
	// Kernel is the legacy name of Space from when only SPAPT kernels
	// existed; normalize keeps the two in sync.
	Kernel string `json:"kernel,omitempty"`
	// Source selects the observation feed: "simulated" (default, the
	// §4.5 dataset oracle measured in-process) or "remote" (external
	// agents post observations for suggested configs).
	Source string `json:"source,omitempty"`

	// Model, Plan, and Scorer select registered backends by name
	// (defaults: dynatree, variable, alc).
	Model  string `json:"model,omitempty"`
	Plan   string `json:"plan,omitempty"`
	Scorer string `json:"scorer,omitempty"`
	// Seed drives all session randomness (dataset, learner, noise).
	Seed uint64 `json:"seed,omitempty"`

	// PoolSize is the training-pool size (default 192, max 4096).
	PoolSize int `json:"pool_size,omitempty"`
	// NInit, NObs, and NCand are the §3.1 loop parameters (defaults
	// 3, 5, 16; nobs at most 64, ninit and ncand at most pool_size).
	NInit int `json:"ninit,omitempty"`
	NObs  int `json:"nobs,omitempty"`
	NCand int `json:"ncand,omitempty"`
	// MaxRounds caps acquisitions — the NMax budget (default 10).
	MaxRounds int `json:"max_rounds,omitempty"`
	// CostBudget, when positive, stops the session once the §4.3 cost
	// ledger reaches it (seconds of simulated compile+run time).
	CostBudget float64 `json:"cost_budget,omitempty"`
	// Particles sizes the dynatree forest (default 32).
	Particles int `json:"particles,omitempty"`
	// Weight sets the tenant's scheduling weight (1..64); the latest
	// session created for a tenant wins.
	Weight int `json:"weight,omitempty"`
	// QueueCap bounds the remote observation queue (default 256).
	QueueCap int `json:"queue_cap,omitempty"`
}

// Session status values.
type Status string

const (
	// StatusRunning means the session is schedulable (or stepping).
	StatusRunning Status = "running"
	// StatusWaiting means a remote round is published and the session
	// is parked until agents post the pending observations.
	StatusWaiting Status = "waiting"
	// StatusDone means a completion criterion fired.
	StatusDone Status = "done"
	// StatusFailed means a step error ended the session.
	StatusFailed Status = "failed"
	// StatusClosed means the session was deleted.
	StatusClosed Status = "closed"
)

func (s Status) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusClosed
}

// Scheduling states of a session (guarded by Session.mu): parked (not
// queued), queued (in the scheduler's ready queue), stepping (owned by
// a scheduler worker). The invariant — a session is queued at most
// once and stepped by at most one worker — is what keeps each learner
// single-threaded under a many-worker scheduler.
const (
	schedParked = iota
	schedQueued
	schedStepping
)

// Session is one hosted learner with its scheduling envelope.
type Session struct {
	srv  *Server
	spec SessionSpec
	key  string

	ds      *dataset.Dataset
	learner *core.Learner
	remote  *RemoteSource // nil for simulated sessions
	poolX   [][]float64   // standardised features of the training pool

	mu          sync.Mutex
	status      Status
	sched       int
	suspended   bool // snapshot in progress; maybeWake holds off
	dropCkpt    bool // deleted (not just shut down): checkpoint must go
	err         error
	steps       int64 // scheduler steps taken
	createdStep int64 // global step ordinal when the session was registered
	doneStep    int64 // global step ordinal at completion (fairness clock)
	created     time.Time
	result      *core.Result
	doneCh      chan struct{}
}

// SessionInfo is the JSON snapshot of a session.
type SessionInfo struct {
	Tenant       string  `json:"tenant"`
	Name         string  `json:"name"`
	Space        string  `json:"space"`
	Kernel       string  `json:"kernel"`
	Source       string  `json:"source"`
	Status       Status  `json:"status"`
	StoppedBy    string  `json:"stopped_by,omitempty"`
	Error        string  `json:"error,omitempty"`
	Steps        int64   `json:"steps"`
	Acquired     int     `json:"acquired"`
	Cost         float64 `json:"cost"`
	CostBudget   float64 `json:"cost_budget,omitempty"`
	MaxRounds    int     `json:"max_rounds"`
	RoundPending bool    `json:"round_pending"`
	CreatedStep  int64   `json:"created_step,omitempty"`
	DoneStep     int64   `json:"done_step,omitempty"`
	QueueDepth   int     `json:"queue_depth,omitempty"`
}

// Suggestion is one pending observation demand of a remote session:
// the agent should measure Config Count times and post the results;
// the posts land on ordinals [First, First+Count).
type Suggestion struct {
	Item   int          `json:"item"`
	Config space.Config `json:"config"`
	First  int          `json:"first"`
	Count  int          `json:"count"`
	Posted int          `json:"posted"`
}

// SuggestionList is the response of the suggestions endpoint.
type SuggestionList struct {
	Status       Status       `json:"status"`
	RoundPending bool         `json:"round_pending"`
	Suggestions  []Suggestion `json:"suggestions,omitempty"`
}

// ObservationPost is one agent-measured observation.
type ObservationPost struct {
	Item    int     `json:"item"`
	Value   float64 `json:"value"`
	Compile float64 `json:"compile,omitempty"`
}

// WinnerInfo reports the best configuration at completion.
type WinnerInfo struct {
	Item      int          `json:"item"`
	Config    space.Config `json:"config"`
	Predicted float64      `json:"predicted"`
}

// SessionResult is the response of the result endpoint.
type SessionResult struct {
	SessionInfo
	Observations int        `json:"observations"`
	Unique       int        `json:"unique"`
	Revisits     int        `json:"revisits"`
	FinalError   float64    `json:"final_error"`
	Winner       WinnerInfo `json:"winner"`
}

// Info returns a point-in-time snapshot.
func (s *Session) Info() SessionInfo {
	s.mu.Lock()
	info := SessionInfo{
		Tenant:      s.spec.Tenant,
		Name:        s.spec.Name,
		Space:       s.spec.Space,
		Kernel:      s.spec.Kernel,
		Source:      s.sourceName(),
		Status:      s.status,
		Steps:       s.steps,
		CostBudget:  s.spec.CostBudget,
		MaxRounds:   s.spec.MaxRounds,
		CreatedStep: s.createdStep,
		DoneStep:    s.doneStep,
	}
	if s.err != nil {
		info.Error = s.err.Error()
	}
	s.mu.Unlock()
	info.Acquired = s.learner.Acquired()
	info.Cost = s.learner.Cost()
	info.RoundPending = s.learner.RoundPending()
	if s.remote != nil {
		info.QueueDepth = s.remote.Depth()
	}
	if info.Status.terminal() {
		info.StoppedBy = s.learner.Result().StoppedBy.String()
	}
	return info
}

func (s *Session) sourceName() string {
	if s.remote != nil {
		return SourceRemote
	}
	return SourceSimulated
}

// Done returns a channel closed when the session reaches a terminal
// state.
func (s *Session) Done() <-chan struct{} { return s.doneCh }

// Spec returns the (defaulted) spec the session runs under.
func (s *Session) Spec() SessionSpec { return s.spec }

// Err returns the terminal error of a failed session.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// runStep advances the session by one scheduler step. Exactly one
// worker runs it at a time (the queued-once invariant).
func (s *Session) runStep(globalOrd int64) {
	s.mu.Lock()
	if s.status.terminal() {
		s.sched = schedParked
		s.mu.Unlock()
		return
	}
	s.sched = schedStepping
	s.status = StatusRunning
	s.mu.Unlock()

	more, waiting, err := s.advance()

	s.mu.Lock()
	s.steps++
	steps := s.steps
	deleted := s.status.terminal()
	s.mu.Unlock()

	var term Status
	switch {
	case err != nil:
		term = StatusFailed
	case !more:
		term = StatusDone
	}
	// Persist before releasing step ownership: the learner is only
	// safely serializable while this worker owns the session. A step
	// torn down by Server.Close surfaces ErrClosed — that is process
	// shutdown, not a session failure, and must not clobber the last
	// good checkpoint (it is exactly what recovery restores from).
	shuttingDown := err != nil && errors.Is(err, core.ErrClosed)
	if !deleted && !shuttingDown && s.srv.checkpointDue(steps, term != "") {
		st := StatusRunning
		switch {
		case term != "":
			st = term
		case waiting:
			st = StatusWaiting
		}
		s.srv.writeCheckpoint(s, st, err)
	}

	s.mu.Lock()
	s.sched = schedParked
	if s.status.terminal() {
		// Closed or deleted while stepping; the closer owns the terminal
		// state. If it was a deletion, a checkpoint written above may
		// have raced the deletion's cleanup — remove it again. (Server
		// shutdown keeps checkpoints: they are the recovery source.)
		drop := s.dropCkpt
		s.mu.Unlock()
		if drop {
			s.srv.removeCheckpoint(s.spec.Tenant, s.spec.Name)
		}
		return
	}
	switch {
	case err != nil:
		s.terminateLocked(StatusFailed, err, globalOrd)
		s.mu.Unlock()
		return
	case !more:
		s.terminateLocked(StatusDone, nil, globalOrd)
		s.mu.Unlock()
		return
	case waiting:
		s.status = StatusWaiting
	}
	s.mu.Unlock()
	s.maybeWake()
}

// advance performs the learner work of one step. Simulated sessions
// take a whole synchronous round; remote sessions split the round —
// BeginRound publishes suggestions and parks until agents post every
// pending observation, FinishRound folds them on a later step.
func (s *Session) advance() (more, waiting bool, err error) {
	if s.remote == nil {
		more, err = s.learner.Step()
		return more, false, err
	}
	if s.learner.RoundPending() {
		more, err = s.learner.FinishRound()
		return more, false, err
	}
	chosen, err := s.learner.BeginRound()
	if err != nil || chosen == nil {
		return false, false, err
	}
	return true, !s.observationsReady(), nil
}

// observationsReady reports whether every pending ordinal of the
// published round has been posted.
func (s *Session) observationsReady() bool {
	for _, po := range s.learner.PendingObservations() {
		if s.remote.Have(po.Item) < po.First+po.Count {
			return false
		}
	}
	return true
}

// maybeWake enqueues the session if it is parked and has work: local
// sessions always do; remote sessions only once the published round's
// observations are all posted. Posts and step completions both funnel
// through here; the parked->queued transition under mu deduplicates
// racing wakers.
func (s *Session) maybeWake() {
	s.mu.Lock()
	if s.sched != schedParked || s.status.terminal() || s.suspended {
		s.mu.Unlock()
		return
	}
	if s.status == StatusWaiting && !s.observationsReady() {
		s.mu.Unlock()
		return
	}
	s.sched = schedQueued
	s.mu.Unlock()
	s.srv.sched.enqueue(s)
}

// terminateLocked moves the session to a terminal state. Callers hold
// s.mu.
func (s *Session) terminateLocked(st Status, err error, globalOrd int64) {
	s.status = st
	s.err = err
	s.doneStep = globalOrd
	close(s.doneCh)
	if s.remote != nil {
		s.remote.Close()
	}
	switch st {
	case StatusDone:
		s.srv.completed.Add(1)
	case StatusFailed:
		s.srv.failed.Add(1)
	}
}

// shutdown closes a live session from outside the scheduler (delete,
// server close). The learner teardown unblocks any step in flight;
// runStep sees the terminal state and leaves it untouched.
func (s *Session) shutdown() {
	s.mu.Lock()
	if s.status.terminal() {
		s.mu.Unlock()
		return
	}
	s.terminateLocked(StatusClosed, nil, s.srv.sched.steps.Load())
	s.mu.Unlock()
	s.learner.Close()
}

// Suggestions returns the pending observation demands of a remote
// session — what an agent should measure next.
func (s *Session) Suggestions() (SuggestionList, error) {
	if s.remote == nil {
		return SuggestionList{}, fmt.Errorf("%w: session %q is simulated", ErrNotRemote, s.key)
	}
	out := SuggestionList{RoundPending: s.learner.RoundPending()}
	s.mu.Lock()
	out.Status = s.status
	s.mu.Unlock()
	if !out.RoundPending {
		return out, nil
	}
	for _, po := range s.learner.PendingObservations() {
		out.Suggestions = append(out.Suggestions, Suggestion{
			Item:   po.Item,
			Config: s.ds.Configs[s.ds.TrainIdx[po.Item]],
			First:  po.First,
			Count:  po.Count,
			Posted: s.remote.Have(po.Item),
		})
	}
	return out, nil
}

// PostObservations appends agent-measured observations to a remote
// session's queue and wakes it if the published round became ready.
// Only the ordinals the pending round still needs are accepted: a post
// for an item outside the round, past its First+Count ordinals, or with
// a negative or non-finite value or compile cost fails with
// ErrBadObservation. Returns how many observations were accepted; on
// any error the prefix before the failing post is kept.
func (s *Session) PostObservations(obs []ObservationPost) (int, error) {
	if s.remote == nil {
		return 0, fmt.Errorf("%w: session %q is simulated", ErrNotRemote, s.key)
	}
	upTo := make(map[int]int)
	for _, po := range s.learner.PendingObservations() {
		upTo[po.Item] = po.First + po.Count
	}
	accepted := 0
	var err error
	for _, o := range obs {
		if err = s.remote.Post(o.Item, o.Value, o.Compile, upTo[o.Item]); err != nil {
			break
		}
		accepted++
	}
	if accepted > 0 {
		s.maybeWake()
	}
	return accepted, err
}

// Result reports a completed session: bookkeeping, final model error,
// and the winning configuration under the trained model.
func (s *Session) Result() (*SessionResult, error) {
	s.mu.Lock()
	st := s.status
	cached := s.result
	s.mu.Unlock()
	if st != StatusDone {
		return nil, fmt.Errorf("%w: session %q is %s", ErrNotDone, s.key, st)
	}
	res := cached
	if res == nil {
		res = s.learner.Result()
		s.mu.Lock()
		if s.result == nil {
			s.result = res
		}
		res = s.result
		s.mu.Unlock()
	}
	out := &SessionResult{
		SessionInfo:  s.Info(),
		Observations: res.Observations,
		Unique:       res.Unique,
		Revisits:     res.Revisits,
		FinalError:   res.FinalError,
	}
	preds := res.Model.PredictMeanFastBatch(s.poolX)
	best := 0
	for i, p := range preds {
		if p < preds[best] {
			best = i
		}
	}
	out.Winner = WinnerInfo{
		Item:      best,
		Config:    s.ds.Configs[s.ds.TrainIdx[best]],
		Predicted: preds[best],
	}
	return out, nil
}
