package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"alic/internal/snapshot"
)

// Crash-safe serving: when Options.CheckpointDir is set, every session
// is periodically serialized to <dir>/<tenant>~<name>.ckpt — spec,
// scheduler bookkeeping, the learner's full snapshot (rng position,
// cost ledger, model, any parked round), and for remote sessions the
// observation log. Writes are atomic (temp file + rename), so a crash
// at any byte leaves either the previous complete checkpoint or the
// new one, never a torn file. Server.Recover scans the directory on
// startup and restores every session: finished sessions come back
// queryable with exact terminal accounting, running sessions resume
// bit-identically mid-trajectory, and remote sessions re-park awaiting
// the same observations they were waiting for when the process died.

// ErrSessionBusy reports a snapshot request that raced a scheduler
// step; the HTTP layer translates it into 429 + Retry-After.
var ErrSessionBusy = errors.New("serve: session is stepping; retry")

// ckptFormat versions the serve checkpoint payloads.
const ckptFormat = 1

// ckptExt is the checkpoint filename suffix; anything else in the
// directory is ignored by Recover (stale temp files are cleaned up).
const ckptExt = ".ckpt"

// maxSnapshotBytes bounds snapshot uploads on the restore endpoint.
const maxSnapshotBytes = 64 << 20

// Checkpoint container sections.
const (
	secSpec    = "serve.spec"
	secMeta    = "serve.meta"
	secLearner = "serve.learner"
	secRemote  = "serve.remote"
)

func (srv *Server) checkpointing() bool { return srv.opts.CheckpointDir != "" }

func (srv *Server) checkpointPath(tenant, name string) string {
	return filepath.Join(srv.opts.CheckpointDir, tenant+"~"+name+ckptExt)
}

// checkpointDue reports whether a session that just finished its
// steps-th scheduler step should be persisted: every CheckpointEvery
// steps, and always on a terminal transition.
func (srv *Server) checkpointDue(steps int64, terminal bool) bool {
	if !srv.checkpointing() {
		return false
	}
	if terminal {
		return true
	}
	every := int64(srv.opts.CheckpointEvery)
	if every < 1 {
		every = 1
	}
	return steps%every == 0
}

// writeCheckpoint persists one session. The caller owns the session's
// learner (scheduler-step or suspend ownership). Failures never affect
// the session — the previous complete checkpoint stays in place — but
// are counted in Stats.CheckpointErrors.
func (srv *Server) writeCheckpoint(s *Session, st Status, termErr error) {
	data, err := s.encodeCheckpoint(st, termErr)
	if err == nil {
		err = atomicWrite(srv.checkpointPath(s.spec.Tenant, s.spec.Name), data)
	}
	if err != nil {
		srv.ckptFailures.Add(1)
	}
}

// removeCheckpoint deletes a session's checkpoint (session deleted).
func (srv *Server) removeCheckpoint(tenant, name string) {
	if srv.checkpointing() {
		_ = os.Remove(srv.checkpointPath(tenant, name))
	}
}

// atomicWrite lands data at path via a same-directory temp file, fsync
// and rename, so a crash mid-write can never tear an existing
// checkpoint.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	serr := f.Sync()
	cerr := f.Close()
	for _, e := range []error{werr, serr, cerr} {
		if e != nil {
			os.Remove(tmp)
			return e
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// encodeCheckpoint serializes the session into a snapshot container.
// The caller owns the learner. The remote observation log is captured
// after the learner so concurrent posts can only make it a superset of
// what the learner's ledger references — indistinguishable from posts
// arriving right after recovery.
func (s *Session) encodeCheckpoint(st Status, termErr error) ([]byte, error) {
	var buf bytes.Buffer
	w := snapshot.NewWriter(&buf)

	specJSON, err := json.Marshal(s.spec)
	if err != nil {
		return nil, err
	}
	if err := w.Section(secSpec, specJSON); err != nil {
		return nil, err
	}

	s.mu.Lock()
	steps := s.steps
	s.mu.Unlock()
	me := snapshot.NewEncoder(64)
	me.Int(ckptFormat)
	me.String(string(st))
	if termErr != nil {
		me.String(termErr.Error())
	} else {
		me.String("")
	}
	me.Int(int(steps))
	if err := w.Section(secMeta, me.Bytes()); err != nil {
		return nil, err
	}

	var lb bytes.Buffer
	if err := s.learner.Snapshot(&lb); err != nil {
		return nil, err
	}
	if err := w.Section(secLearner, lb.Bytes()); err != nil {
		return nil, err
	}

	if s.remote != nil {
		if err := w.Section(secRemote, s.remote.snapshotState()); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// SnapshotSession serializes a live session for migration: suspend it
// (wait for any in-flight step to finish and keep the scheduler away),
// capture the checkpoint container, resume. Reports ErrSessionBusy if
// the session would not quiesce promptly.
func (srv *Server) SnapshotSession(tenant, name string) ([]byte, error) {
	s, err := srv.GetSession(tenant, name)
	if err != nil {
		return nil, err
	}
	if err := s.suspend(2 * time.Second); err != nil {
		return nil, err
	}
	defer s.resume()
	s.mu.Lock()
	st := s.status
	serr := s.err
	s.mu.Unlock()
	return s.encodeCheckpoint(st, serr)
}

// RestoreSession reconstructs a session from a checkpoint container
// (SnapshotSession output or a .ckpt file) and registers it under the
// tenant/name recorded in its spec. Running sessions are rescheduled
// immediately; remote sessions awaiting observations re-park; finished
// sessions come back queryable with their terminal accounting intact.
func (srv *Server) RestoreSession(data []byte) (*Session, error) {
	return srv.restoreSession(data, "", "")
}

func (srv *Server) restoreSession(data []byte, tenantOverride, nameOverride string) (*Session, error) {
	c, err := snapshot.Parse(data)
	if err != nil {
		return nil, err
	}
	specJSON, ok := c.Section(secSpec)
	if !ok {
		return nil, snapshot.Corruptf(secSpec, "section missing")
	}
	spec, err := parseSpec(specJSON)
	if err != nil {
		return nil, err
	}
	if tenantOverride != "" {
		spec.Tenant = tenantOverride
	}
	if nameOverride != "" {
		spec.Name = nameOverride
	}
	spec, err = normalize(spec)
	if err != nil {
		return nil, err
	}

	metaPay, ok := c.Section(secMeta)
	if !ok {
		return nil, snapshot.Corruptf(secMeta, "section missing")
	}
	md := snapshot.NewDecoder(secMeta, metaPay)
	if v := md.Int(); md.Err() == nil && v != ckptFormat {
		return nil, snapshot.Corruptf(secMeta, "checkpoint format %d, this build reads %d", v, ckptFormat)
	}
	st := Status(md.String())
	errMsg := md.String()
	steps := md.Int()
	if err := md.Err(); err != nil {
		return nil, err
	}
	switch st {
	case StatusRunning, StatusWaiting, StatusDone, StatusFailed:
	default:
		return nil, snapshot.Corruptf(secMeta, "unknown status %q", st)
	}
	if steps < 0 {
		return nil, snapshot.Corruptf(secMeta, "negative step count")
	}

	learnerPay, ok := c.Section(secLearner)
	if !ok {
		return nil, snapshot.Corruptf(secLearner, "section missing")
	}

	s, err := srv.buildSession(spec)
	if err != nil {
		return nil, err
	}
	teardown := func() { s.learner.Close() }
	if remotePay, ok := c.Section(secRemote); ok {
		if s.remote == nil {
			teardown()
			return nil, snapshot.Corruptf(secRemote, "remote log for a simulated session")
		}
		if err := s.remote.restoreState(remotePay); err != nil {
			teardown()
			return nil, err
		}
	} else if s.remote != nil {
		teardown()
		return nil, snapshot.Corruptf(secRemote, "remote session without an observation log")
	}
	if err := s.learner.Restore(bytes.NewReader(learnerPay)); err != nil {
		teardown()
		return nil, err
	}

	s.steps = int64(steps)
	if st.terminal() {
		s.status = st
		if errMsg != "" {
			s.err = errors.New(errMsg)
		}
		close(s.doneCh)
		if s.remote != nil {
			s.remote.Close()
		}
	} else if s.remote != nil && s.learner.RoundPending() && !s.observationsReady() {
		// Re-park: the round's suggestions are republished as-is and the
		// session waits for the same observations it was waiting for.
		s.status = StatusWaiting
	}

	if err := srv.register(s, spec); err != nil {
		teardown()
		return nil, err
	}
	// Terminal accounting survives the restart exactly.
	switch st {
	case StatusDone:
		srv.completed.Add(1)
	case StatusFailed:
		srv.failed.Add(1)
	}
	if srv.checkpointing() {
		// Land the (possibly renamed) session in this server's directory
		// before it runs, so an immediate crash already covers it.
		if data, err := s.encodeCheckpoint(s.statusLocked(), s.Err()); err == nil {
			_ = atomicWrite(srv.checkpointPath(spec.Tenant, spec.Name), data)
		}
	}
	s.maybeWake()
	return s, nil
}

// Recover restores every checkpoint in Options.CheckpointDir — the
// startup path after a crash or restart. Stale temp files from writes
// the crash interrupted are deleted. Corrupt or unreadable checkpoints
// are skipped (reported in the joined error) so one bad file cannot
// hold the rest of the fleet hostage; sessions that already exist
// (created before Recover was called) are skipped silently.
func (srv *Server) Recover() (int, error) {
	if !srv.checkpointing() {
		return 0, nil
	}
	dir := srv.opts.CheckpointDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	restored := 0
	var errs []error
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() {
			continue
		}
		if strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp-") {
			// A write the crash interrupted; the rename never happened, so
			// the complete previous checkpoint (if any) is still in place.
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, ckptExt) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
			continue
		}
		if _, err := srv.RestoreSession(data); err != nil {
			if errors.Is(err, ErrExists) {
				continue
			}
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
			continue
		}
		restored++
	}
	return restored, errors.Join(errs...)
}

// statusLocked reads the session status under mu.
func (s *Session) statusLocked() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.status
}

// suspend takes step ownership of the session away from the scheduler:
// mark it suspended (maybeWake stops enqueueing), then wait for any
// queued or in-flight step to drain. The caller must pair it with
// resume.
func (s *Session) suspend(timeout time.Duration) error {
	s.mu.Lock()
	if s.suspended {
		s.mu.Unlock()
		return ErrSessionBusy
	}
	s.suspended = true
	s.mu.Unlock()
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		if s.sched == schedParked {
			s.mu.Unlock()
			return nil
		}
		s.mu.Unlock()
		if time.Now().After(deadline) {
			s.mu.Lock()
			s.suspended = false
			s.mu.Unlock()
			s.maybeWake()
			return ErrSessionBusy
		}
		time.Sleep(time.Millisecond)
	}
}

// resume returns a suspended session to the scheduler.
func (s *Session) resume() {
	s.mu.Lock()
	s.suspended = false
	s.mu.Unlock()
	s.maybeWake()
}

// snapshotState serializes the remote observation log: per item the
// posted values/compile costs and how many the engine has consumed.
// Depth and post counters are derivable, so they are not stored.
func (r *RemoteSource) snapshotState() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	items := make([]int, 0, len(r.obs))
	for idx := range r.obs {
		if len(r.obs[idx]) > 0 {
			items = append(items, idx)
		}
	}
	sort.Ints(items)
	e := snapshot.NewEncoder(64 + 24*len(items))
	e.Int(ckptFormat)
	e.Int(len(items))
	for _, idx := range items {
		log := r.obs[idx]
		e.Int(idx)
		e.Int(r.served[idx])
		e.Int(len(log))
		for _, o := range log {
			e.F64(o.value)
			e.F64(o.compile)
		}
	}
	return e.Bytes()
}

// restoreState loads a snapshotState payload into a fresh source.
func (r *RemoteSource) restoreState(payload []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.posted != 0 || len(r.obs) != 0 {
		return errors.New("serve: restoreState on a used remote source")
	}
	d := snapshot.NewDecoder(secRemote, payload)
	if v := d.Int(); d.Err() == nil && v != ckptFormat {
		return snapshot.Corruptf(secRemote, "remote log format %d, this build reads %d", v, ckptFormat)
	}
	nItems := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if nItems < 0 || nItems > d.Remaining()/24 {
		return snapshot.Corruptf(secRemote, "item count %d with %d bytes left", nItems, d.Remaining())
	}
	for i := 0; i < nItems; i++ {
		idx := d.Int()
		served := d.Int()
		n := d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if idx < 0 || n <= 0 || n > d.Remaining()/16 || served < 0 || served > n {
			return snapshot.Corruptf(secRemote, "item %d: %d observations, %d served, %d bytes left",
				idx, n, served, d.Remaining())
		}
		log := make([]remoteObs, n)
		for j := range log {
			log[j] = remoteObs{value: d.F64(), compile: d.F64()}
		}
		r.obs[idx] = log
		r.served[idx] = served
		r.depth += n - served
		r.posted += int64(n)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return snapshot.Corruptf(secRemote, "%d trailing bytes", d.Remaining())
	}
	return nil
}
