package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"alic/internal/model"
	"alic/internal/snapshot"
)

// requireSameSessionResult pins bit-identical terminal state across a
// crash/restore boundary: bookkeeping, exact §4.3 cost, final model
// error, and the winning configuration.
func requireSameSessionResult(t *testing.T, label string, got, want *SessionResult) {
	t.Helper()
	if got.Acquired != want.Acquired || got.Observations != want.Observations ||
		got.Unique != want.Unique || got.Revisits != want.Revisits {
		t.Fatalf("%s: bookkeeping diverged: got %+v want %+v", label, got, want)
	}
	if got.Cost != want.Cost {
		t.Fatalf("%s: cost diverged: %v vs %v", label, got.Cost, want.Cost)
	}
	if got.FinalError != want.FinalError {
		t.Fatalf("%s: final error diverged: %v vs %v", label, got.FinalError, want.FinalError)
	}
	if got.StoppedBy != want.StoppedBy {
		t.Fatalf("%s: stop reason %q vs %q", label, got.StoppedBy, want.StoppedBy)
	}
	if got.Winner.Item != want.Winner.Item || got.Winner.Predicted != want.Winner.Predicted {
		t.Fatalf("%s: winner diverged: %+v vs %+v", label, got.Winner, want.Winner)
	}
}

func sessionResult(t *testing.T, s *Session) *SessionResult {
	t.Helper()
	res, err := s.Result()
	if err != nil {
		t.Fatalf("result of %s: %v", s.key, err)
	}
	return res
}

// TestCheckpointCrashRecovery is the fault-injection harness for the
// simulated fleet: run a cohort with per-step checkpointing, tear the
// server down abruptly at a randomized point (some sessions mid-run,
// some done, some possibly never stepped), recover into a fresh
// server, and require every session to finish with terminal state
// bit-identical to an uninterrupted reference run.
func TestCheckpointCrashRecovery(t *testing.T) {
	const sessions = 12
	specs := make([]SessionSpec, sessions)
	for i := range specs {
		specs[i] = tinySpec(fmt.Sprintf("t%d", i%3), fmt.Sprintf("s%02d", i))
		specs[i].Seed = 3 + uint64(i%4)
		specs[i].MaxRounds = 8 + i%5
	}

	// Uninterrupted reference fleet.
	ref := NewServer(Options{})
	want := make([]*SessionResult, sessions)
	for i, spec := range specs {
		s, err := ref.CreateSession(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, time.Minute)
		want[i] = sessionResult(t, s)
	}
	ref.Close()

	dir := t.TempDir()
	for trial, killAfter := range []time.Duration{0, 2 * time.Millisecond, 20 * time.Millisecond} {
		trialDir := filepath.Join(dir, fmt.Sprintf("trial%d", trial))
		crash := NewServer(Options{CheckpointDir: trialDir, CheckpointEvery: 1})
		for _, spec := range specs {
			if _, err := crash.CreateSession(spec); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(killAfter)
		// Abrupt teardown: no checkpoint flush; whatever the per-step
		// writes last landed is all recovery gets.
		crash.Close()

		rec := NewServer(Options{CheckpointDir: trialDir, Workers: 2})
		n, err := rec.Recover()
		if err != nil {
			t.Fatalf("trial %d: recover: %v", trial, err)
		}
		if n != sessions {
			t.Fatalf("trial %d: recovered %d of %d sessions", trial, n, sessions)
		}
		for i, spec := range specs {
			s, err := rec.GetSession(spec.Tenant, spec.Name)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			waitDone(t, s, time.Minute)
			requireSameSessionResult(t, fmt.Sprintf("trial %d session %d", trial, i), sessionResult(t, s), want[i])
		}
		if stats := rec.Stats(); stats.Completed != sessions || stats.Failed != 0 {
			t.Fatalf("trial %d: accounting lost: completed %d failed %d, want %d/0",
				trial, stats.Completed, stats.Failed, sessions)
		}
		rec.Close()
	}
}

// feedPartial plays the external agent until the session has acquired
// at least target configurations, then stops posting.
func feedPartial(s *Session, target int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if s.Info().Acquired >= target {
			return nil
		}
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
				obs = append(obs, ObservationPost{Item: sg.Item, Value: syntheticValue(sg.Item, ord), Compile: syntheticCompile})
			}
		}
		if len(obs) > 0 {
			if _, err := s.PostObservations(obs); err != nil {
				return err
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("feedPartial of %s timed out at %d/%d", s.key, s.Info().Acquired, target)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCheckpointRemoteReparks pins the remote crash story: a session
// parked mid-round awaiting observations is recovered parked on the
// SAME round — identical suggestions, identical pending ordinals — and
// the finished run is bit-identical to one that never crashed.
func TestCheckpointRemoteReparks(t *testing.T) {
	spec := tinySpec("remote", "crashy")
	spec.Source = SourceRemote
	spec.MaxRounds = 9

	// Reference: fed to completion, no crash.
	ref := NewServer(Options{})
	rs, err := ref.CreateSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := feedUntilDone(rs, time.Minute); err != nil {
		t.Fatal(err)
	}
	waitDone(t, rs, time.Minute)
	want := sessionResult(t, rs)
	ref.Close()

	dir := t.TempDir()
	crash := NewServer(Options{CheckpointDir: dir})
	s, err := crash.CreateSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Feed a few rounds, then stop posting and let it park mid-round.
	if err := feedPartial(s, 4, time.Minute); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, StatusWaiting, time.Minute)
	parked, err := s.Suggestions()
	if err != nil {
		t.Fatal(err)
	}
	crash.Close()

	rec := NewServer(Options{CheckpointDir: dir})
	defer rec.Close()
	if n, err := rec.Recover(); err != nil || n != 1 {
		t.Fatalf("recover: n=%d err=%v", n, err)
	}
	s2, err := rec.GetSession(spec.Tenant, spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Info().Status; st != StatusWaiting {
		t.Fatalf("recovered remote session is %q, want %q", st, StatusWaiting)
	}
	resumed, err := s2.Suggestions()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Suggestions) != len(parked.Suggestions) {
		t.Fatalf("republished %d suggestions, parked with %d", len(resumed.Suggestions), len(parked.Suggestions))
	}
	for i := range resumed.Suggestions {
		a, b := resumed.Suggestions[i], parked.Suggestions[i]
		if a.Item != b.Item || a.First != b.First || a.Count != b.Count || a.Posted != b.Posted {
			t.Fatalf("suggestion %d changed across restart: %+v vs %+v", i, a, b)
		}
	}
	if err := feedUntilDone(s2, time.Minute); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s2, time.Minute)
	requireSameSessionResult(t, "remote", sessionResult(t, s2), want)
}

func waitStatus(t *testing.T, s *Session, st Status, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if s.Info().Status == st {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("session %s never reached %q (status %q)", s.key, st, s.Info().Status)
}

// TestHTTPSnapshotMigration moves a live session between two servers
// through the HTTP API: GET the snapshot from A, POST it to B's
// restore endpoint, and the session continues on B exactly where A
// left it.
func TestHTTPSnapshotMigration(t *testing.T) {
	srvA := NewServer(Options{})
	defer srvA.Close()
	srvB := NewServer(Options{})
	defer srvB.Close()
	webA := httptest.NewServer(srvA.Handler())
	defer webA.Close()
	webB := httptest.NewServer(srvB.Handler())
	defer webB.Close()

	spec := tinySpec("acme", "migrate-me")
	spec.Source = SourceRemote
	spec.MaxRounds = 7
	s, err := srvA.CreateSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := feedPartial(s, 3, time.Minute); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, StatusWaiting, time.Minute)

	var snap []byte
	for attempt := 0; ; attempt++ {
		resp, err := http.Get(webA.URL + "/v1/tenants/acme/sessions/migrate-me/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			snap = body
			break
		}
		if resp.StatusCode != http.StatusTooManyRequests || attempt > 100 {
			t.Fatalf("snapshot: HTTP %d: %s", resp.StatusCode, body)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Post(webB.URL+"/v1/tenants/acme/sessions/migrated/restore",
		"application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("restore: HTTP %d: %s", resp.StatusCode, body)
	}

	s2, err := srvB.GetSession("acme", "migrated")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s2.Info().Acquired, s.Info().Acquired; got != want {
		t.Fatalf("migrated session acquired %d, origin %d", got, want)
	}
	if err := feedUntilDone(s2, time.Minute); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s2, time.Minute)

	// The origin's copy still completes identically — migration reads,
	// never mutates.
	if err := feedUntilDone(s, time.Minute); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, time.Minute)
	requireSameSessionResult(t, "migration", sessionResult(t, s2), sessionResult(t, s))

	// A garbage restore body is rejected loudly.
	resp, err = http.Post(webB.URL+"/v1/tenants/acme/sessions/garbage/restore",
		"application/octet-stream", strings.NewReader("not a snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage restore: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestRecoverSkipsCorruptAndCleansTmp pins the kill-mid-write story:
// recovery removes stale temp files (the rename never happened, so the
// previous checkpoint is authoritative), refuses corrupt checkpoints
// without giving up on the rest, and ignores unrelated files.
func TestRecoverSkipsCorruptAndCleansTmp(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(Options{CheckpointDir: dir})
	s, err := srv.CreateSession(tinySpec("good", "one"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, time.Minute)
	want := sessionResult(t, s)
	srv.Close()

	// Simulate a crash mid-write plus assorted directory noise.
	tmpName := filepath.Join(dir, ".good~one"+ckptExt+".tmp-12345")
	if err := os.WriteFile(tmpName, []byte("half a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad"+ckptExt), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Truncate a copy of the good checkpoint to fake a torn file that
	// somehow got the .ckpt name.
	good, err := os.ReadFile(filepath.Join(dir, "good~one"+ckptExt))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "torn"+ckptExt), good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	rec := NewServer(Options{CheckpointDir: dir})
	defer rec.Close()
	n, err := rec.Recover()
	if n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	if err == nil || !strings.Contains(err.Error(), "bad"+ckptExt) || !strings.Contains(err.Error(), "torn"+ckptExt) {
		t.Fatalf("recover error %v does not name the corrupt files", err)
	}
	if _, statErr := os.Stat(tmpName); !os.IsNotExist(statErr) {
		t.Fatalf("stale temp file survived recovery: %v", statErr)
	}
	if _, statErr := os.Stat(filepath.Join(dir, "README.txt")); statErr != nil {
		t.Fatalf("unrelated file was touched: %v", statErr)
	}
	s2, err := rec.GetSession("good", "one")
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Info().Status; st != StatusDone {
		t.Fatalf("recovered done session is %q", st)
	}
	requireSameSessionResult(t, "done-session", sessionResult(t, s2), want)
	if stats := rec.Stats(); stats.Completed != 1 {
		t.Fatalf("terminal accounting lost: completed = %d", stats.Completed)
	}
}

// TestDeleteRemovesCheckpoint pins that deletion (unlike shutdown)
// drops the on-disk state: a deleted session must not resurrect on
// recovery.
func TestDeleteRemovesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(Options{CheckpointDir: dir})
	spec := tinySpec("acme", "doomed")
	s, err := srv.CreateSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, time.Minute)
	if err := srv.DeleteSession("acme", "doomed"); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	rec := NewServer(Options{CheckpointDir: dir})
	defer rec.Close()
	if n, err := rec.Recover(); n != 0 || err != nil {
		t.Fatalf("deleted session resurrected: n=%d err=%v", n, err)
	}
}

// rewriteSection returns the container data with the named section's
// payload replaced by edit(payload), checksums recomputed as any
// client can.
func rewriteSection(t *testing.T, data []byte, name string, edit func([]byte) []byte) []byte {
	t.Helper()
	c, err := snapshot.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := snapshot.NewWriter(&buf)
	for _, n := range c.Names() {
		pay, _ := c.Section(n)
		if n == name {
			pay = edit(pay)
		}
		if err := w.Section(n, pay); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// withSpecModel returns a checkpoint whose spec section names the
// model backend m, every other section copied unchanged.
func withSpecModel(t *testing.T, data []byte, m string) []byte {
	t.Helper()
	return rewriteSection(t, data, secSpec, func(pay []byte) []byte {
		var spec map[string]any
		d := json.NewDecoder(bytes.NewReader(pay))
		d.UseNumber()
		if err := d.Decode(&spec); err != nil {
			t.Fatal(err)
		}
		spec["model"] = m
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
}

// TestRestoreUnknownModelStaysTyped: a served checkpoint whose spec
// names a backend this build does not register (the gp backend of
// earlier builds) fails restore with an error that is both ErrBadSpec
// and model.ErrUnknownModel, and Recover skips that file, names it,
// and still restores its sibling.
func TestRestoreUnknownModelStaysTyped(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(Options{CheckpointDir: dir})
	for _, name := range []string{"kept", "legacy"} {
		s, err := srv.CreateSession(tinySpec("acme", name))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, time.Minute)
	}
	srv.Close()

	legacyPath := filepath.Join(dir, "acme~legacy"+ckptExt)
	data, err := os.ReadFile(legacyPath)
	if err != nil {
		t.Fatal(err)
	}
	legacy := withSpecModel(t, data, "gp")

	fresh := NewServer(Options{})
	_, err = fresh.RestoreSession(legacy)
	fresh.Close()
	if !errors.Is(err, ErrBadSpec) || !errors.Is(err, model.ErrUnknownModel) {
		t.Fatalf("restore of a gp checkpoint: err = %v, want ErrBadSpec and ErrUnknownModel", err)
	}

	if err := os.WriteFile(legacyPath, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	rec := NewServer(Options{CheckpointDir: dir})
	defer rec.Close()
	n, err := rec.Recover()
	if n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	if !errors.Is(err, model.ErrUnknownModel) || !strings.Contains(err.Error(), "acme~legacy"+ckptExt) {
		t.Fatalf("recover error %v does not report the gp checkpoint", err)
	}
	if _, err := rec.GetSession("acme", "kept"); err != nil {
		t.Fatalf("sibling checkpoint not restored: %v", err)
	}
	if _, err := rec.GetSession("acme", "legacy"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("gp checkpoint restored: err = %v", err)
	}
}

// TestCheckpointRestoreRejectsHostileModel: a checkpoint whose model
// section carries a forest with a dimension no payload can hold gets a
// 4xx from the restore endpoint, and the server keeps serving.
func TestCheckpointRestoreRejectsHostileModel(t *testing.T) {
	srv := NewServer(Options{})
	defer srv.Close()
	web := httptest.NewServer(srv.Handler())
	defer web.Close()

	s, err := srv.CreateSession(tinySpec("acme", "origin"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, time.Minute)
	snap, err := srv.SnapshotSession("acme", "origin")
	if err != nil {
		t.Fatal(err)
	}
	hostile := rewriteSection(t, snap, secLearner, func(learner []byte) []byte {
		return rewriteSection(t, learner, "core.model", func(pay []byte) []byte {
			d := snapshot.NewDecoder("core.model", pay)
			_ = d.String() // backend name; the forest payload follows
			forest := len(pay) - d.Remaining()
			out := append([]byte(nil), pay...)
			binary.LittleEndian.PutUint64(out[forest+96:], 1<<40) // the forest's dim field
			return out
		})
	})

	restore := func(name string, body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(web.URL+"/v1/tenants/acme/sessions/"+name+"/restore",
			"application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("restore %s: %v", name, err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	if code, msg := restore("hostile", hostile); code < 400 || code >= 500 {
		t.Fatalf("hostile model: HTTP %d (%s), want 4xx", code, msg)
	}
	if code, msg := restore("copy", snap); code != http.StatusCreated {
		t.Fatalf("server stopped serving restores after the hostile one: HTTP %d (%s)", code, msg)
	}
	resp, err := http.Get(web.URL + "/v1/tenants/acme/sessions/origin")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session info after the hostile restore: HTTP %d", resp.StatusCode)
	}
}

// TestSnapshotConcurrentResult serves GET …/result and GET …/snapshot
// side by side on a finished session. Result predicts from the
// learner's model without the learner lock, so a checkpoint must only
// read the model: under -race the two never touch the same memory,
// every checkpoint is byte-identical, and so is every result.
func TestSnapshotConcurrentResult(t *testing.T) {
	srv := NewServer(Options{})
	defer srv.Close()
	web := httptest.NewServer(srv.Handler())
	defer web.Close()
	s, err := srv.CreateSession(tinySpec("acme", "finished"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, time.Minute)
	base := web.URL + "/v1/tenants/acme/sessions/finished"

	// get fetches path, retrying while a concurrent snapshot holds the
	// session suspended.
	get := func(path string) ([]byte, error) {
		for attempt := 0; ; attempt++ {
			resp, err := http.Get(base + path)
			if err != nil {
				return nil, err
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			if resp.StatusCode == http.StatusOK {
				return body, nil
			}
			if resp.StatusCode != http.StatusTooManyRequests || attempt > 100 {
				return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, body)
			}
			time.Sleep(time.Millisecond)
		}
	}

	const rounds = 8
	bodies := map[string][][]byte{"/result": make([][]byte, 2*rounds), "/snapshot": make([][]byte, 2*rounds)}
	var wg sync.WaitGroup
	for path, out := range bodies {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < len(out); i += 2 {
					body, err := get(path)
					if err != nil {
						t.Error(err)
						return
					}
					out[i] = body
				}
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for path, out := range bodies {
		for i, body := range out {
			if !bytes.Equal(body, out[0]) {
				t.Fatalf("GET %s #%d differs from #0", path, i)
			}
		}
	}
	other := NewServer(Options{})
	defer other.Close()
	restored, err := other.RestoreSession(bodies["/snapshot"][0])
	if err != nil {
		t.Fatal(err)
	}
	requireSameSessionResult(t, "restored", sessionResult(t, restored), sessionResult(t, s))
}
