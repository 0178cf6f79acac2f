package serve

import (
	"bytes"
	"errors"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"alic/internal/snapshot"
	"alic/internal/snapshot/snapshottest"
)

var updateSeeds = flag.Bool("update-seeds", false,
	"rewrite testdata/fuzz/FuzzRestoreSession from the seed generators")

// FuzzRestoreSession feeds arbitrary checkpoint bytes to
// Server.RestoreSession, with every container checksum recomputed so
// mutations reach the spec, meta, learner and remote-log decoders.
// Restore never panics: it either registers a session, which is then
// deleted so it neither steps on nor counts against the server, or
// fails with an input error the restore endpoint answers 400
// (ErrCorruptSnapshot, ErrUnsupportedVersion, ErrBadSpec, or
// core.ErrSnapshotMismatch for a spec its learner section disagrees
// with). The seed corpus is in testdata/fuzz/FuzzRestoreSession
// (restoreSeeds).
func FuzzRestoreSession(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := NewServer(Options{})
		defer srv.Close()
		s, err := srv.RestoreSession(snapshottest.Resealed(data))
		if err != nil {
			if errStatus(err) != http.StatusBadRequest {
				t.Fatalf("restore failed with %v, want an input error", err)
			}
			return
		}
		if err := srv.DeleteSession(s.spec.Tenant, s.spec.Name); err != nil {
			t.Fatal(err)
		}
	})
}

// restoreSeeds returns FuzzRestoreSession's seed payloads by file name.
// Seeds named valid-* are checkpoints of a finished simulated session
// and of a remote session parked mid-round with part of its round
// posted; the others are hostile serve.meta and serve.remote edits of
// them that restore must reject as corrupt.
func restoreSeeds(t *testing.T) map[string][]byte {
	sim, remote := simulatedCheckpoint(t), remoteCheckpoint(t)
	meta := func(format int, status string, steps int) []byte {
		e := snapshot.NewEncoder(64)
		e.Int(format)
		e.String(status)
		e.String("")
		e.Int(steps)
		return e.Bytes()
	}
	// remoteLog encodes a serve.remote payload: the format, the item
	// count, then per item its index, served count, observation count
	// and (value, compile) pairs. A zero int encodes as the float 0, so
	// zeros stand in for the pairs.
	remoteLog := func(format, items int, fields ...int) []byte {
		e := snapshot.NewEncoder(64)
		e.Int(format)
		e.Int(items)
		for _, v := range fields {
			e.Int(v)
		}
		return e.Bytes()
	}
	withMeta := func(pay []byte) []byte { return replaceSection(t, sim, secMeta, pay) }
	withRemote := func(pay []byte) []byte { return replaceSection(t, remote, secRemote, pay) }
	return map[string][]byte{
		"valid-simulated":      sim,
		"valid-remote":         remote,
		"meta-format":          withMeta(meta(ckptFormat+1, string(StatusDone), 5)),
		"meta-status":          withMeta(meta(ckptFormat, "zombie", 5)),
		"meta-negative-steps":  withMeta(meta(ckptFormat, string(StatusDone), -1)),
		"meta-truncated":       withMeta(meta(ckptFormat, string(StatusDone), 5)[:20]),
		"meta-missing":         replaceSection(t, sim, secMeta, nil),
		"remote-format":        withRemote(remoteLog(ckptFormat+1, 0)),
		"remote-huge-count":    withRemote(remoteLog(ckptFormat, 1<<40)),
		"remote-negative-item": withRemote(remoteLog(ckptFormat, 1, -1, 0, 1, 0, 0)),
		"remote-served-beyond": withRemote(remoteLog(ckptFormat, 1, 0, 2, 1, 0, 0)),
		"remote-trailing":      withRemote(append(remoteLog(ckptFormat, 0), 0)),
		"remote-missing":       replaceSection(t, remote, secRemote, nil),
		"remote-for-simulated": replaceSection(t, sim, secRemote, remoteLog(ckptFormat, 0)),
	}
}

// simulatedCheckpoint returns the checkpoint of a finished tiny
// simulated session.
func simulatedCheckpoint(t *testing.T) []byte {
	srv := NewServer(Options{})
	defer srv.Close()
	s, err := srv.CreateSession(tinySpec("fuzz", "simulated"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, time.Minute)
	data, err := srv.SnapshotSession("fuzz", "simulated")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// remoteCheckpoint returns the checkpoint of a tiny remote session
// whose seeding round is complete and whose second round has its first
// observation posted, so its log holds served and unserved entries.
func remoteCheckpoint(t *testing.T) []byte {
	srv := NewServer(Options{})
	defer srv.Close()
	spec := tinySpec("fuzz", "remote")
	spec.Source = SourceRemote
	s, err := srv.CreateSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	completeRound(t, s, awaitRound(t, s))
	sug := awaitRound(t, s)
	first := sug.Suggestions[0]
	post := ObservationPost{Item: first.Item, Value: syntheticValue(first.Item, first.Posted), Compile: syntheticCompile}
	if n, err := s.PostObservations([]ObservationPost{post}); n != 1 || err != nil {
		t.Fatalf("posting one observation took %d: %v", n, err)
	}
	waitStatus(t, s, StatusWaiting, time.Minute)
	data, err := srv.SnapshotSession("fuzz", "remote")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// replaceSection returns the container data with the named section's
// payload replaced by pay, added if absent, or dropped when pay is nil;
// checksums are computed as any client can.
func replaceSection(tb testing.TB, data []byte, name string, pay []byte) []byte {
	c, err := snapshot.Parse(data)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	w := snapshot.NewWriter(&buf)
	found := false
	for _, n := range c.Names() {
		p, _ := c.Section(n)
		if n == name {
			found = true
			if pay == nil {
				continue
			}
			p = pay
		}
		if err := w.Section(n, p); err != nil {
			tb.Fatal(err)
		}
	}
	if !found && pay != nil {
		if err := w.Section(name, pay); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestFuzzRestoreSessionSeeds: the committed corpus has one file per
// generator, its valid-* seeds restore, and each hostile seed fails as
// corrupt in the section it edits. Run with -update-seeds to rewrite the corpus after a change
// to the checkpoint layout or to the generators.
func TestFuzzRestoreSessionSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzRestoreSession")
	seeds := restoreSeeds(t)
	if *updateSeeds {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, payload := range seeds {
			if err := os.WriteFile(filepath.Join(dir, name), snapshottest.CorpusFile(payload), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(seeds) {
		t.Fatalf("%d committed seeds, %d generated", len(entries), len(seeds))
	}
	srv := NewServer(Options{})
	defer srv.Close()
	for _, e := range entries {
		if _, ok := seeds[e.Name()]; !ok {
			t.Errorf("seed %s has no generator", e.Name())
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		data, err := snapshottest.CorpusPayload(raw)
		if err != nil {
			t.Fatalf("seed %s: %v", e.Name(), err)
		}
		s, err := srv.RestoreSession(data)
		if err == nil {
			if err := srv.DeleteSession(s.spec.Tenant, s.spec.Name); err != nil {
				t.Fatal(err)
			}
		}
		if strings.HasPrefix(e.Name(), "valid-") {
			if err != nil {
				t.Errorf("seed %s: restore failed: %v", e.Name(), err)
			}
			continue
		}
		// A hostile seed must fail in the section it edits.
		section := secRemote
		if strings.HasPrefix(e.Name(), "meta-") {
			section = secMeta
		}
		var ce *snapshot.CorruptError
		if !errors.As(err, &ce) || ce.Section != section {
			t.Errorf("seed %s: restore err = %v, want a corrupt %s section", e.Name(), err, section)
		}
	}
}

// TestFuzzRestoreSessionSeedsReplay: the committed valid-* seeds are
// checkpoints written by an earlier build, whose learner sections hold
// forest format 2. Each restores and finishes exactly as the session
// it was taken from: the finished simulated session reports the
// result a fresh run of its spec reports, and the parked remote
// session, fed the same posts, ends where an uninterrupted twin ends.
func TestFuzzRestoreSessionSeedsReplay(t *testing.T) {
	seed := func(name string) []byte {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzRestoreSession", name))
		if err != nil {
			t.Fatal(err)
		}
		data, err := snapshottest.CorpusPayload(raw)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	finish := func(s *Session) *SessionResult {
		for {
			sug := awaitRound(t, s)
			if len(sug.Suggestions) == 0 {
				break
			}
			completeRound(t, s, sug)
		}
		waitDone(t, s, time.Minute)
		return sessionResult(t, s)
	}

	srv := NewServer(Options{})
	defer srv.Close()
	sim, err := srv.RestoreSession(seed("valid-simulated"))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := srv.CreateSession(tinySpec("fuzz", "simulated-fresh"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, fresh, time.Minute)
	requireSameSessionResult(t, "simulated seed", sessionResult(t, sim), sessionResult(t, fresh))

	restored, err := srv.RestoreSession(seed("valid-remote"))
	if err != nil {
		t.Fatal(err)
	}
	twinSrv := NewServer(Options{})
	defer twinSrv.Close()
	spec := tinySpec("fuzz", "remote")
	spec.Source = SourceRemote
	twin, err := twinSrv.CreateSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	completeRound(t, twin, awaitRound(t, twin))
	requireSameSessionResult(t, "remote seed", finish(restored), finish(twin))
}
