package serve

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"alic/internal/core"
)

// tinySpec is a fast-completing session spec for tests.
func tinySpec(tenant, name string) SessionSpec {
	return SessionSpec{
		Tenant:    tenant,
		Name:      name,
		Kernel:    "mm",
		Seed:      7,
		PoolSize:  32,
		NInit:     2,
		NObs:      2,
		NCand:     8,
		MaxRounds: 5,
		Particles: 8,
	}
}

// syntheticValue is the deterministic stand-in for an agent-measured
// runtime: positive, item- and ordinal-dependent.
func syntheticValue(item, ord int) float64 {
	return 1 + 0.25*math.Sin(float64(item*31+ord*7))
}

const syntheticCompile = 0.3

func waitDone(t *testing.T, s *Session, timeout time.Duration) {
	t.Helper()
	select {
	case <-s.Done():
	case <-time.After(timeout):
		t.Fatalf("session %s did not finish within %v (status %v)", s.key, timeout, s.Info().Status)
	}
}

// feedUntilDone plays the external agent for one remote session:
// polls suggestions, posts the missing ordinals, stops at a terminal
// state.
func feedUntilDone(s *Session, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-s.Done():
			return nil
		default:
		}
		sug, err := s.Suggestions()
		if err != nil {
			return err
		}
		var obs []ObservationPost
		for _, sg := range sug.Suggestions {
			for ord := sg.Posted; ord < sg.First+sg.Count; ord++ {
				obs = append(obs, ObservationPost{
					Item:    sg.Item,
					Value:   syntheticValue(sg.Item, ord),
					Compile: syntheticCompile,
				})
			}
		}
		if len(obs) > 0 {
			if _, err := s.PostObservations(obs); err != nil && !errors.Is(err, ErrNotAccepting) {
				return err
			}
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("feed of %s timed out (status %v)", s.key, s.Info().Status)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

func TestRegistryCRUD(t *testing.T) {
	srv := NewServer(Options{Workers: 2})
	defer srv.Close()

	s, err := srv.CreateSession(tinySpec("acme", "mm-x86"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateSession(tinySpec("acme", "mm-x86")); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create = %v, want ErrExists", err)
	}
	if _, err := srv.CreateSession(tinySpec("other", "mm-x86")); err != nil {
		t.Fatalf("same name under another tenant: %v", err)
	}
	got, err := srv.GetSession("acme", "mm-x86")
	if err != nil || got != s {
		t.Fatalf("GetSession = %v, %v", got, err)
	}
	if _, err := srv.GetSession("acme", "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing session = %v, want ErrNotFound", err)
	}
	if n := len(srv.ListSessions("acme")); n != 1 {
		t.Fatalf("acme sessions = %d, want 1", n)
	}
	if n := len(srv.ListSessions("")); n != 2 {
		t.Fatalf("all sessions = %d, want 2", n)
	}
	waitDone(t, s, 30*time.Second)
	if err := srv.DeleteSession("acme", "mm-x86"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.GetSession("acme", "mm-x86"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted session still found: %v", err)
	}
	// Deleting a live session tears it down.
	live, err := srv.CreateSession(tinySpec("acme", "short-lived"))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.DeleteSession("acme", "short-lived"); err != nil {
		t.Fatal(err)
	}
	<-live.Done()
	if st := live.Info().Status; st != StatusClosed && st != StatusDone {
		t.Fatalf("deleted session status = %v", st)
	}
}

func TestSpecValidation(t *testing.T) {
	srv := NewServer(Options{Workers: 1})
	defer srv.Close()
	bad := []SessionSpec{
		{Tenant: "a", Name: "s", Kernel: "no-such-kernel"},
		{Tenant: "", Name: "s", Kernel: "mm"},
		{Tenant: "a", Name: "has space", Kernel: "mm"},
		{Tenant: "a", Name: "s", Kernel: "mm", Source: "oracle"},
		{Tenant: "a", Name: "s", Kernel: "mm", PoolSize: 1 << 20},
		{Tenant: "a", Name: "s", Kernel: "mm", CostBudget: -1},
		{Tenant: "a", Name: "s", Kernel: "mm", Model: "no-such-model"},
	}
	for i, spec := range bad {
		if _, err := srv.CreateSession(spec); !errors.Is(err, ErrBadSpec) {
			t.Errorf("spec %d: err = %v, want ErrBadSpec", i, err)
		}
	}
}

func TestSessionLimits(t *testing.T) {
	srv := NewServer(Options{Workers: 1, MaxSessions: 3, MaxSessionsPerTenant: 2})
	defer srv.Close()
	for i := 0; i < 2; i++ {
		if _, err := srv.CreateSession(tinySpec("a", fmt.Sprintf("s%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.CreateSession(tinySpec("a", "s2")); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("tenant cap: err = %v, want ErrSessionLimit", err)
	}
	if _, err := srv.CreateSession(tinySpec("b", "s0")); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateSession(tinySpec("c", "s0")); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("server cap: err = %v, want ErrSessionLimit", err)
	}
}

// TestServedSessionDeterminism pins the serving determinism contract:
// a session's results are bit-identical whether it runs alone or
// interleaved with other tenants' load, and across scheduler worker
// counts.
func TestServedSessionDeterminism(t *testing.T) {
	run := func(workers, noise int) (SessionInfo, *SessionResult) {
		srv := NewServer(Options{Workers: workers})
		defer srv.Close()
		for i := 0; i < noise; i++ {
			spec := tinySpec(fmt.Sprintf("noise-%d", i%3), fmt.Sprintf("n%d", i))
			spec.Seed = uint64(100 + i)
			if _, err := srv.CreateSession(spec); err != nil {
				t.Fatal(err)
			}
		}
		s, err := srv.CreateSession(tinySpec("probe", "p"))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, 30*time.Second)
		res, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		return s.Info(), res
	}

	aliceInfo, alice := run(1, 0)
	bobInfo, bob := run(4, 24)
	if aliceInfo.Cost != bobInfo.Cost {
		t.Fatalf("cost diverged across load: %v vs %v", aliceInfo.Cost, bobInfo.Cost)
	}
	if aliceInfo.Acquired != bobInfo.Acquired {
		t.Fatalf("acquisitions diverged: %d vs %d", aliceInfo.Acquired, bobInfo.Acquired)
	}
	if alice.FinalError != bob.FinalError {
		t.Fatalf("final error diverged: %v vs %v", alice.FinalError, bob.FinalError)
	}
	if alice.Winner.Item != bob.Winner.Item || alice.Winner.Predicted != bob.Winner.Predicted {
		t.Fatalf("winner diverged: %+v vs %+v", alice.Winner, bob.Winner)
	}
}

// TestRemoteMatchesSimulatedShape drives a remote session end-to-end
// through the suggestion/observation API and checks it completes with
// the same bookkeeping shape a simulated session has.
func TestRemoteSessionCompletes(t *testing.T) {
	srv := NewServer(Options{Workers: 2})
	defer srv.Close()
	spec := tinySpec("fleet", "dev-1")
	spec.Source = SourceRemote
	s, err := srv.CreateSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := feedUntilDone(s, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, 30*time.Second)
	info := s.Info()
	if info.Status != StatusDone {
		t.Fatalf("status = %v (err %v)", info.Status, s.Err())
	}
	if info.Acquired != spec.MaxRounds {
		t.Fatalf("acquired = %d, want %d", info.Acquired, spec.MaxRounds)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner.Config == nil {
		t.Fatal("no winner config")
	}
	if info.Cost <= 0 {
		t.Fatal("no cost accounted")
	}
	// The session is closed to further posts.
	if _, err := s.PostObservations([]ObservationPost{{Item: 0, Value: 1}}); !errors.Is(err, ErrNotAccepting) {
		t.Fatalf("post after done = %v, want ErrNotAccepting", err)
	}
}

// TestBudgetExhaustion pins the §4.3 budget contract: the session
// stops with StopByCost at the first ledger crossing — the cost before
// the final round is strictly under budget (the ledger never
// overshoots by more than the round that crossed it) — and the ledger
// freezes at the stop.
func TestBudgetExhaustion(t *testing.T) {
	srv := NewServer(Options{Workers: 2})
	defer srv.Close()
	spec := tinySpec("budgeted", "b")
	spec.MaxRounds = 4096 // the cost budget must be what stops it
	spec.CostBudget = 2.5
	s, err := srv.CreateSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, 60*time.Second)
	info := s.Info()
	if info.Status != StatusDone {
		t.Fatalf("status = %v (err %v)", info.Status, s.Err())
	}
	if info.StoppedBy != core.StopByCost.String() {
		t.Fatalf("stopped by %q, want cost", info.StoppedBy)
	}
	cost := s.learner.Cost()
	if cost < spec.CostBudget {
		t.Fatalf("stopped below budget: cost %v < %v", cost, spec.CostBudget)
	}
	beforeFinal := cost - s.learner.LastRoundCost()
	if beforeFinal >= spec.CostBudget {
		t.Fatalf("budget overshot: cost before final round %v >= budget %v (a round ran after the crossing)",
			beforeFinal, spec.CostBudget)
	}
	// Ledger frozen after the stop.
	time.Sleep(5 * time.Millisecond)
	if again := s.learner.Cost(); again != cost {
		t.Fatalf("ledger moved after stop: %v -> %v", cost, again)
	}
}

// TestRemoteBudgetRejectsPosts asserts a budget-stopped remote session
// answers further posts with ErrNotAccepting (HTTP 429) and keeps the
// ledger frozen.
func TestRemoteBudgetRejectsPosts(t *testing.T) {
	srv := NewServer(Options{Workers: 2})
	defer srv.Close()
	spec := tinySpec("budgeted", "remote")
	spec.Source = SourceRemote
	spec.MaxRounds = 4096
	spec.CostBudget = 1.2 // a few rounds of syntheticCompile + runtime
	s, err := srv.CreateSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := feedUntilDone(s, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, 30*time.Second)
	if got := s.Info().StoppedBy; got != core.StopByCost.String() {
		t.Fatalf("stopped by %q, want cost", got)
	}
	cost := s.learner.Cost()
	if cost < spec.CostBudget {
		t.Fatalf("stopped below budget: %v < %v", cost, spec.CostBudget)
	}
	if before := cost - s.learner.LastRoundCost(); before >= spec.CostBudget {
		t.Fatalf("budget overshot: %v >= %v", before, spec.CostBudget)
	}
	if _, err := s.PostObservations([]ObservationPost{{Item: 0, Value: 1}}); !errors.Is(err, ErrNotAccepting) {
		t.Fatalf("post after budget stop = %v, want ErrNotAccepting", err)
	}
	if again := s.learner.Cost(); again != cost {
		t.Fatalf("ledger moved after stop: %v -> %v", cost, again)
	}
}

func TestServerClose(t *testing.T) {
	srv := NewServer(Options{Workers: 2})
	for i := 0; i < 4; i++ {
		if _, err := srv.CreateSession(tinySpec("t", fmt.Sprintf("s%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("second Close = %v, want ErrServerClosed", err)
	}
	if _, err := srv.CreateSession(tinySpec("t", "late")); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("create after Close = %v, want ErrServerClosed", err)
	}
}
