package core

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"alic/internal/snapshot"
	"alic/internal/snapshot/snapshottest"
)

// snapLearner builds a learner over a fresh engine on a pure source —
// a new process restoring a snapshot constructs exactly this: same
// options, same pool, a brand-new engine whose ledger is then
// restored, and a source that reproduces measurement (item, ordinal)
// pairs bit-identically.
func snapLearner(t testing.TB, opts Options, pool SlicePool, workers int) *Learner {
	t.Helper()
	opts.EvalWorkers = workers
	l, err := New(opts, pool, newFuncSource(pool, stepFn, constSigma(0.05), 0.1, 7), testEval(stepFn))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func runToEnd(t *testing.T, l *Learner) *Result {
	t.Helper()
	for {
		more, err := l.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
	}
	return l.Result()
}

// requireSameRun asserts two completed runs are bit-identical: every
// counter, the exact cost, the full learning curve, and the model's
// predictions over a probe grid.
func requireSameRun(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Acquired != want.Acquired || got.Observations != want.Observations ||
		got.Unique != want.Unique || got.Revisits != want.Revisits {
		t.Fatalf("bookkeeping diverged: got %+v want %+v", got, want)
	}
	if got.Cost != want.Cost {
		t.Fatalf("cost diverged: %v vs %v", got.Cost, want.Cost)
	}
	if got.StoppedBy != want.StoppedBy {
		t.Fatalf("stop reason %v vs %v", got.StoppedBy, want.StoppedBy)
	}
	if len(got.Curve) != len(want.Curve) {
		t.Fatalf("curve lengths %d vs %d", len(got.Curve), len(want.Curve))
	}
	for i := range got.Curve {
		if got.Curve[i] != want.Curve[i] {
			t.Fatalf("curve[%d]: %+v vs %+v", i, got.Curve[i], want.Curve[i])
		}
	}
	for _, x := range gridPool(41) {
		a, b := got.Model.PredictMeanFast(x), want.Model.PredictMeanFast(x)
		if a != b {
			t.Fatalf("model diverged at %v: %v vs %v", x, a, b)
		}
	}
}

// TestSnapshotResumeMatchesUninterrupted is the determinism contract
// at the learner layer: snapshot mid-run, restore into a freshly
// constructed learner over a fresh engine, and the remaining rounds
// are byte-identical to a run that never stopped. Snapshotting must
// also leave the original learner's own trajectory untouched.
func TestSnapshotResumeMatchesUninterrupted(t *testing.T) {
	opts := smallOpts()
	opts.NMax = 60
	pool := gridPool(300)

	ref := snapLearner(t, opts, pool, 1)
	defer ref.Close()
	want := runToEnd(t, ref)

	for _, snapAt := range []int{1, 7, 20} {
		orig := snapLearner(t, opts, pool, 1)
		for i := 0; i < snapAt; i++ {
			if _, err := orig.Step(); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := orig.Snapshot(&buf); err != nil {
			t.Fatalf("snapshot after %d steps: %v", snapAt, err)
		}

		restored := snapLearner(t, opts, pool, 1)
		if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("restore after %d steps: %v", snapAt, err)
		}
		requireSameRun(t, runToEnd(t, restored), want)
		restored.Close()

		// The snapshot is a read: the original continues unperturbed.
		requireSameRun(t, runToEnd(t, orig), want)
		orig.Close()
	}
}

// TestSnapshotParkedRound pins the serving-critical case: a session
// parked by BeginRound (batch chosen, nothing scheduled) snapshots
// mid-round, and the restored learner's FinishRound continues as if
// the process never died.
func TestSnapshotParkedRound(t *testing.T) {
	opts := smallOpts()
	opts.NMax = 50
	pool := gridPool(300)

	ref := snapLearner(t, opts, pool, 1)
	defer ref.Close()
	want := runToEnd(t, ref)

	drive := func(l *Learner, rounds int) bool {
		t.Helper()
		for i := 0; rounds < 0 || i < rounds; i++ {
			chosen, err := l.BeginRound()
			if err != nil {
				t.Fatal(err)
			}
			if chosen == nil {
				return false
			}
			more, err := l.FinishRound()
			if err != nil {
				t.Fatal(err)
			}
			if !more {
				return false
			}
		}
		return true
	}

	orig := snapLearner(t, opts, pool, 1)
	defer orig.Close()
	if !drive(orig, 9) {
		t.Fatal("run ended before the snapshot point")
	}
	// Park a round: select the batch, snapshot before any observation.
	chosen, err := orig.BeginRound()
	if err != nil {
		t.Fatal(err)
	}
	if chosen == nil {
		t.Fatal("no round to park")
	}
	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	restored := snapLearner(t, opts, pool, 1)
	defer restored.Close()
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !restored.RoundPending() {
		t.Fatal("restored learner lost the parked round")
	}
	pend := restored.PendingObservations()
	if len(pend) != len(chosen) {
		t.Fatalf("restored round pends %d items, parked %d", len(pend), len(chosen))
	}
	for j, po := range pend {
		if po.Item != chosen[j] {
			t.Fatalf("restored round item[%d] = %d, parked %d", j, po.Item, chosen[j])
		}
	}
	if _, err := restored.FinishRound(); err != nil {
		t.Fatal(err)
	}
	drive(restored, -1)
	requireSameRun(t, restored.Result(), want)
}

// TestSnapshotRestoreAcrossWorkerCounts: snapshot under one count of
// the evaluator's measurement workers, restore under another, and the
// completed run is bit-identical every way.
func TestSnapshotRestoreAcrossWorkerCounts(t *testing.T) {
	opts := smallOpts()
	opts.NMax = 40
	pool := gridPool(300)

	orig := snapLearner(t, opts, pool, 1)
	defer orig.Close()
	for i := 0; i < 8; i++ {
		if _, err := orig.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	var want *Result
	for _, w := range []int{1, 4, 8} {
		restored := snapLearner(t, opts, pool, w)
		if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		got := runToEnd(t, restored)
		restored.Close()
		if w == 1 {
			want = got
			continue
		}
		requireSameRun(t, got, want)
	}
}

// TestSnapshotMismatchRejected pins the guard behaviour: a snapshot
// from a differently-configured learner fails loudly with
// ErrSnapshotMismatch, and a learner that has already run refuses to
// restore at all.
func TestSnapshotMismatchRejected(t *testing.T) {
	opts := smallOpts()
	opts.NMax = 30
	pool := gridPool(300)

	orig := snapLearner(t, opts, pool, 1)
	defer orig.Close()
	for i := 0; i < 3; i++ {
		if _, err := orig.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func(*Options, *SlicePool){
		"seed":      func(o *Options, _ *SlicePool) { o.Seed++ },
		"batch":     func(o *Options, _ *SlicePool) { o.Batch++ },
		"nmax":      func(o *Options, _ *SlicePool) { o.NMax++ },
		"pool size": func(_ *Options, p *SlicePool) { *p = gridPool(299) },
	} {
		mopts, mpool := opts, pool
		mutate(&mopts, &mpool)
		l := snapLearner(t, mopts, mpool, 1)
		err := l.Restore(bytes.NewReader(buf.Bytes()))
		l.Close()
		if !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("%s mutated: err = %v, want ErrSnapshotMismatch", name, err)
		}
	}

	used := snapLearner(t, opts, pool, 1)
	defer used.Close()
	if _, err := used.Step(); err != nil {
		t.Fatal(err)
	}
	if err := used.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("Restore on a used learner did not error")
	}
}

// TestSnapshotCorruptLearner sweeps byte corruption over a full
// learner snapshot: Restore must fail with a typed error — corruption
// or an unsupported version — and never panic or half-apply. (The
// container CRC catches payload flips; header flips exercise the
// structural paths.)
func TestSnapshotCorruptLearner(t *testing.T) {
	opts := smallOpts()
	opts.NMax = 30
	pool := gridPool(200)
	orig := snapLearner(t, opts, pool, 1)
	defer orig.Close()
	for i := 0; i < 4; i++ {
		if _, err := orig.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	stride := len(snap)/211 + 1
	for i := 0; i < len(snap); i += stride {
		for _, bit := range []byte{0x01, 0xFF} {
			mut := append([]byte(nil), snap...)
			mut[i] ^= bit
			l := snapLearner(t, opts, pool, 1)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic restoring snapshot mutated at byte %d: %v", i, r)
					}
				}()
				err := l.Restore(bytes.NewReader(mut))
				if err == nil {
					t.Fatalf("byte %d flipped by %#x restored cleanly", i, bit)
				}
				if !errors.Is(err, snapshot.ErrCorruptSnapshot) && !errors.Is(err, snapshot.ErrUnsupportedVersion) {
					t.Fatalf("byte %d: untyped error %v", i, err)
				}
			}()
			l.Close()
		}
	}
	for _, n := range []int{0, 5, 13, len(snap) / 2, len(snap) - 1} {
		l := snapLearner(t, opts, pool, 1)
		if err := l.Restore(bytes.NewReader(snap[:n])); !errors.Is(err, snapshot.ErrCorruptSnapshot) {
			t.Fatalf("truncation to %d: err = %v", n, err)
		}
		l.Close()
	}
}

// parkedSnapOpts is the configuration of the stored snapshot
// testdata/learner_parked_round.snap: five rounds, then a BeginRound
// parked awaiting its observations.
func parkedSnapOpts() Options {
	opts := smallOpts()
	opts.NMax = 40
	opts.Batch = 2
	opts.Tree.Particles = 20
	opts.Tree.ScoreParticles = 10
	return opts
}

// parkAfterFiveRounds drives a learner to the stored snapshot's point.
func parkAfterFiveRounds(t *testing.T, l *Learner) {
	t.Helper()
	for i := 0; i < 5; i++ {
		if _, err := l.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.BeginRound(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotReadsPreviousEncoderLayout pins snapshot compatibility
// across the removal of the asynchronous pipeline. The stored snapshot
// was written by the encoder that still carried the pipeline's fields
// (the Async flag and the scheduled-acquisitions count). It must
// restore, and the remaining rounds must be byte-identical to a run
// that never stopped. The current encoder must also write the learner,
// rng, round and ledger sections of that snapshot byte for byte.
func TestSnapshotReadsPreviousEncoderLayout(t *testing.T) {
	stored, err := os.ReadFile("testdata/learner_parked_round.snap")
	if err != nil {
		t.Fatal(err)
	}
	opts := parkedSnapOpts()
	pool := gridPool(300)

	ref := snapLearner(t, opts, pool, 1)
	defer ref.Close()
	parkAfterFiveRounds(t, ref)
	var buf bytes.Buffer
	if err := ref.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	old, err := snapshot.Parse(stored)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := snapshot.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{secLearner, secRNG, secRound, secLedger} {
		a, okA := old.Section(name)
		b, okB := cur.Section(name)
		if !okA || !okB || !bytes.Equal(a, b) {
			t.Fatalf("section %s differs from the stored layout (stored %v, written %v)", name, okA, okB)
		}
	}
	if _, err := ref.FinishRound(); err != nil {
		t.Fatal(err)
	}
	want := runToEnd(t, ref)

	restored := snapLearner(t, opts, pool, 2)
	defer restored.Close()
	if err := restored.Restore(bytes.NewReader(stored)); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.FinishRound(); err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, runToEnd(t, restored), want)
}

// TestSnapshotRejectsAsyncFlag pins the other half of the compatibility
// rule: a snapshot taken by an asynchronous-pipeline learner cannot
// resume on the single round driver, and says why.
func TestSnapshotRejectsAsyncFlag(t *testing.T) {
	stored, err := os.ReadFile("testdata/learner_parked_round.snap")
	if err != nil {
		t.Fatal(err)
	}
	c, err := snapshot.Parse(stored)
	if err != nil {
		t.Fatal(err)
	}
	// The flag follows the format version, nine structural ints and the
	// seed: 8 + 9*8 + 8 bytes into the learner section.
	const asyncOffset = 88
	var buf bytes.Buffer
	sw := snapshot.NewWriter(&buf)
	for _, name := range c.Names() {
		pay, _ := c.Section(name)
		if name == secLearner {
			pay = append([]byte(nil), pay...)
			if pay[asyncOffset] != 0 {
				t.Fatalf("stored Async flag byte is %d, want 0", pay[asyncOffset])
			}
			pay[asyncOffset] = 1
		}
		if err := sw.Section(name, pay); err != nil {
			t.Fatal(err)
		}
	}
	l := snapLearner(t, parkedSnapOpts(), gridPool(300), 1)
	defer l.Close()
	err = l.Restore(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrSnapshotMismatch) || !strings.Contains(err.Error(), "Async") {
		t.Fatalf("restoring an async snapshot = %v, want ErrSnapshotMismatch naming Async", err)
	}
}

// FuzzLearnerRestore: Restore of arbitrary bytes into a fresh learner
// never panics and never half-applies. On error the learner snapshots
// to exactly the bytes it did before the call; on success one Step
// runs without panicking. Seeds: a fresh snapshot, a mid-run snapshot
// and the stored parked-round snapshot, all taken with the options the
// fuzzed learner is built with, so unmutated seeds restore.
func FuzzLearnerRestore(f *testing.F) {
	opts := parkedSnapOpts()
	pool := gridPool(300)
	snap := func(l *Learner) []byte {
		var buf bytes.Buffer
		if err := l.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	l := snapLearner(f, opts, pool, 1)
	f.Add(snap(l))
	for i := 0; i < 3; i++ {
		if _, err := l.Step(); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(snap(l))
	l.Close()
	stored, err := os.ReadFile("testdata/learner_parked_round.snap")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(stored)

	f.Fuzz(func(t *testing.T, data []byte) {
		l := snapLearner(t, opts, pool, 1)
		defer l.Close()
		var before bytes.Buffer
		if err := l.Snapshot(&before); err != nil {
			t.Fatal(err)
		}
		// Resealed checksums let mutations reach the section decoders
		// (TestSnapshotCorruptLearner covers the checksum itself).
		if err := l.Restore(bytes.NewReader(snapshottest.Resealed(data))); err != nil {
			var after bytes.Buffer
			if err := l.Snapshot(&after); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before.Bytes(), after.Bytes()) {
				t.Fatalf("failed Restore (%v) changed the learner's state", err)
			}
			return
		}
		l.Step()
	})
}
