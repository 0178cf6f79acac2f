package core

import (
	"errors"
	"fmt"
	"io"

	"alic/internal/model"
	"alic/internal/snapshot"
)

// ErrSnapshotMismatch reports a snapshot that decoded cleanly but was
// taken from a learner with different structural parameters (pool
// size, budgets, plan/scorer/backend names, seed) than the one
// restoring it. Deliberately distinct from snapshot.ErrCorruptSnapshot:
// the bytes are fine, the learners disagree.
var ErrSnapshotMismatch = errors.New("core: snapshot from a differently-configured learner")

// learnerFormat versions the learner section payload.
const learnerFormat = 1

// Section names inside the learner container. Readers skip names they
// do not recognise (the forward-compat rule), so additions are free;
// renames and semantic changes bump learnerFormat instead.
const (
	secLearner = "core.learner"
	secRNG     = "core.rng"
	secRound   = "core.round"
	secLedger  = "core.ledger"
	secModel   = "core.model"
	secSpace   = "core.space"
)

// Snapshot serializes the learner's complete resumable state to w as
// a versioned container: loop counters and bookkeeping, the rng
// stream position, any round parked by BeginRound (so a split-phase
// scheduler's sessions snapshot exactly, mid-round), the evaluator's
// cost ledger, and the backend model. The contract is the acceptance
// bar of the determinism pin: restore into a freshly constructed
// learner (same options, pool and evaluator wiring) in any process,
// at any evaluator worker count, and the remaining rounds are
// byte-identical to never having stopped.
//
// The learner must be between rounds or parked on a BeginRound; the
// backend must implement model.Snapshotter once seeded.
func (l *Learner) Snapshot(w io.Writer) error {
	if l.closed.Load() {
		return ErrClosed
	}
	l.mu.Lock()
	defer l.mu.Unlock()

	var ms model.Snapshotter
	if l.model != nil {
		var ok bool
		if ms, ok = l.model.(model.Snapshotter); !ok {
			return fmt.Errorf("core: model backend %q does not support snapshots", l.builder.Name())
		}
	}
	ledger, err := l.ev.SnapshotLedger()
	if err != nil {
		return err
	}

	sw := snapshot.NewWriter(w)

	e := snapshot.NewEncoder(512 + 16*len(l.order) + 24*len(l.curve))
	e.Int(learnerFormat)
	// Structural guards: the restoring learner must agree on all of
	// them, or the remaining trajectory would silently diverge.
	e.Int(l.pool.Len())
	e.Int(len(l.pool.Features(0)))
	e.Int(l.opts.NInit)
	e.Int(l.opts.NObs)
	e.Int(l.opts.NCand)
	e.Int(l.opts.NMax)
	e.Int(l.opts.Batch)
	e.Int(l.opts.PlanObs)
	e.Int(l.opts.EvalEvery)
	e.U64(l.opts.Seed)
	// Formerly the asynchronous-pipeline flag; always false now, and
	// kept so snapshots stay byte-compatible in both directions.
	e.Bool(false)
	e.String(l.plan.Name())
	e.String(l.acq.Name())
	e.String(l.builder.Name())
	// Loop position and bookkeeping.
	e.Int(l.acquired)
	e.Int(l.observations)
	e.Int(l.revisits)
	// Formerly the scheduled-acquisitions count, which equals acquired
	// whenever a learner can be snapshotted.
	e.Int(l.acquired)
	e.F64(l.lastRoundCost)
	e.Int(l.lastSeq)
	e.Int(int(l.stoppedBy))
	// Seen items in first-seen order with their observation counts —
	// the aligned pair avoids map iteration entirely.
	e.Ints(l.order)
	for _, idx := range l.order {
		e.Int(l.obsCount[idx])
	}
	// Prequential stopping estimator.
	e.Int(l.preq.window)
	e.F64s(l.preq.resid2)
	e.Int(l.preq.nextIdx)
	e.Bool(l.preq.filled)
	// Learning curve.
	e.Int(len(l.curve))
	for _, cp := range l.curve {
		e.Int(cp.Acquired)
		e.F64(cp.Cost)
		e.F64(cp.Error)
	}
	if err := sw.Section(secLearner, e.Bytes()); err != nil {
		return err
	}

	re := snapshot.NewEncoder(48)
	for _, word := range l.r.State() {
		re.U64(word)
	}
	if err := sw.Section(secRNG, re.Bytes()); err != nil {
		return err
	}

	if l.begun != nil {
		be := snapshot.NewEncoder(32 + 8*len(l.begun.chosen))
		be.Ints(l.begun.chosen)
		be.Int(l.begun.n)
		be.Bool(l.begun.seeding)
		if err := sw.Section(secRound, be.Bytes()); err != nil {
			return err
		}
	}

	if err := sw.Section(secLedger, ledger); err != nil {
		return err
	}

	// The space name travels in its own section so pre-registry readers
	// (which skip unknown names) stay compatible; it is only written
	// when the learner is space-guarded at all.
	if l.opts.Space != "" {
		se := snapshot.NewEncoder(16 + len(l.opts.Space))
		se.String(l.opts.Space)
		if err := sw.Section(secSpace, se.Bytes()); err != nil {
			return err
		}
	}

	if ms != nil {
		me := snapshot.NewEncoder(64)
		me.String(l.builder.Name())
		if err := sw.Section(secModel, append(me.Bytes(), ms.Snapshot()...)); err != nil {
			return err
		}
	}
	return nil
}

// Restore loads a Snapshot into this learner, which must be freshly
// constructed (nothing seeded, nothing acquired) over the same pool
// shape and option guards the snapshot records — mismatches fail with
// ErrSnapshotMismatch rather than diverging silently. The evaluator's
// worker count (Options.EvalWorkers) is deliberately NOT guarded:
// restoring onto different parallelism is supported and
// bit-identical. After Restore the learner continues exactly where
// the snapshot was taken, including a round parked by BeginRound.
func (l *Learner) Restore(r io.Reader) error {
	if l.closed.Load() {
		return ErrClosed
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.model != nil || l.acquired != 0 || l.begun != nil || len(l.order) != 0 {
		return fmt.Errorf("core: Restore on a learner that has already run")
	}
	c, err := snapshot.Read(r)
	if err != nil {
		return err
	}
	pay, ok := c.Section(secLearner)
	if !ok {
		return snapshot.Corruptf(secLearner, "section missing")
	}
	d := snapshot.NewDecoder(secLearner, pay)
	if v := d.Int(); d.Err() == nil && v != learnerFormat {
		return snapshot.Corruptf(secLearner, "learner format %d, this build reads %d", v, learnerFormat)
	}

	type guard struct {
		name string
		got  string
		want string
	}
	var bad []guard
	intGuard := func(name string, want int) {
		if got := d.Int(); d.Err() == nil && got != want {
			bad = append(bad, guard{name, fmt.Sprint(got), fmt.Sprint(want)})
		}
	}
	strGuard := func(name, want string) {
		if got := d.String(); d.Err() == nil && got != want {
			bad = append(bad, guard{name, got, want})
		}
	}
	intGuard("pool size", l.pool.Len())
	intGuard("feature dim", len(l.pool.Features(0)))
	intGuard("NInit", l.opts.NInit)
	intGuard("NObs", l.opts.NObs)
	intGuard("NCand", l.opts.NCand)
	intGuard("NMax", l.opts.NMax)
	intGuard("Batch", l.opts.Batch)
	intGuard("PlanObs", l.opts.PlanObs)
	intGuard("EvalEvery", l.opts.EvalEvery)
	if got := d.U64(); d.Err() == nil && got != l.opts.Seed {
		bad = append(bad, guard{"Seed", fmt.Sprint(got), fmt.Sprint(l.opts.Seed)})
	}
	// Snapshots taken by asynchronous-pipeline learners (a mode that no
	// longer exists) cannot resume on the single round driver.
	if got := d.Bool(); d.Err() == nil && got {
		bad = append(bad, guard{"Async", "true", "false"})
	}
	strGuard("plan", l.plan.Name())
	strGuard("scorer", l.acq.Name())
	strGuard("model backend", l.builder.Name())
	if err := d.Err(); err != nil {
		return err
	}
	if len(bad) > 0 {
		msg := ""
		for i, g := range bad {
			if i > 0 {
				msg += "; "
			}
			msg += fmt.Sprintf("%s: snapshot %s, learner %s", g.name, g.got, g.want)
		}
		return fmt.Errorf("%w: %s", ErrSnapshotMismatch, msg)
	}

	acquired := d.Int()
	observations := d.Int()
	revisits := d.Int()
	d.Int() // the scheduled-acquisitions slot; see Snapshot
	lastRoundCost := d.F64()
	lastSeq := d.Int()
	stoppedBy := StopReason(d.Int())
	order := d.Ints()
	counts := make([]int, len(order))
	for i := range counts {
		counts[i] = d.Int()
	}
	preqWindow := d.Int()
	resid2 := d.F64s()
	preqNext := d.Int()
	preqFilled := d.Bool()
	nCurve := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if acquired < 0 || observations < 0 || revisits < 0 || lastSeq < -1 {
		return snapshot.Corruptf(secLearner, "negative counters")
	}
	if stoppedBy < StopNone || stoppedBy > StopCancelled {
		return snapshot.Corruptf(secLearner, "stop reason %d", int(stoppedBy))
	}
	if preqWindow < 1 || len(resid2) > preqWindow || preqNext < 0 || preqNext >= preqWindow+1 {
		return snapshot.Corruptf(secLearner, "prequential window %d with %d residuals, next %d", preqWindow, len(resid2), preqNext)
	}
	if nCurve < 0 || nCurve > d.Remaining()/24 {
		return snapshot.Corruptf(secLearner, "curve length %d with %d bytes left", nCurve, d.Remaining())
	}
	curve := make([]CurvePoint, 0, nCurve)
	for i := 0; i < nCurve; i++ {
		curve = append(curve, CurvePoint{Acquired: d.Int(), Cost: d.F64(), Error: d.F64()})
	}
	if err := d.Err(); err != nil {
		return err
	}
	seenCheck := make(map[int]bool, len(order))
	for i, idx := range order {
		if idx < 0 || idx >= l.pool.Len() {
			return snapshot.Corruptf(secLearner, "seen item %d outside pool of %d", idx, l.pool.Len())
		}
		if seenCheck[idx] {
			return snapshot.Corruptf(secLearner, "seen item %d twice", idx)
		}
		seenCheck[idx] = true
		if counts[i] < 1 {
			return snapshot.Corruptf(secLearner, "item %d with %d observations", idx, counts[i])
		}
	}

	pay, ok = c.Section(secRNG)
	if !ok {
		return snapshot.Corruptf(secRNG, "section missing")
	}
	rd := snapshot.NewDecoder(secRNG, pay)
	var st [6]uint64
	for i := range st {
		st[i] = rd.U64()
	}
	if err := rd.Err(); err != nil {
		return err
	}

	var begun *round
	if pay, ok = c.Section(secRound); ok {
		bd := snapshot.NewDecoder(secRound, pay)
		begun = &round{chosen: bd.Ints(), n: bd.Int(), seeding: bd.Bool()}
		if err := bd.Err(); err != nil {
			return err
		}
		wantN := l.plan.AcquireObservations(l.opts)
		if begun.seeding {
			wantN = l.plan.SeedObservations(l.opts)
		}
		if len(begun.chosen) == 0 || begun.n != wantN {
			return snapshot.Corruptf(secRound, "round of %d items, %d observations each (the plan takes %d)",
				len(begun.chosen), begun.n, wantN)
		}
		for _, idx := range begun.chosen {
			if idx < 0 || idx >= l.pool.Len() {
				return snapshot.Corruptf(secRound, "chosen item %d outside pool of %d", idx, l.pool.Len())
			}
		}
	}

	ledger, ok := c.Section(secLedger)
	if !ok {
		return snapshot.Corruptf(secLedger, "section missing")
	}

	// Space guard: when both sides name a space they must agree —
	// restoring an "mm" snapshot into a "synthetic/needle" learner is a
	// configuration error, never a panic. A snapshot without the
	// section (pre-registry) or a learner without Options.Space
	// (legacy construction) skips the check.
	if pay, ok = c.Section(secSpace); ok {
		sd := snapshot.NewDecoder(secSpace, pay)
		snapSpace := sd.String()
		if err := sd.Err(); err != nil {
			return err
		}
		if snapSpace == "" {
			return snapshot.Corruptf(secSpace, "empty space name")
		}
		if l.opts.Space != "" && snapSpace != l.opts.Space {
			return fmt.Errorf("%w: snapshot space %q, learner space %q",
				ErrSnapshotMismatch, snapSpace, l.opts.Space)
		}
	}

	// Rebuild the model before committing any learner state, so a bad
	// model payload leaves the learner untouched and retryable.
	var mdl model.Model
	var mpay []byte
	if pay, ok = c.Section(secModel); ok {
		md := snapshot.NewDecoder(secModel, pay)
		name := md.String()
		if err := md.Err(); err != nil {
			return err
		}
		if name != l.builder.Name() {
			return fmt.Errorf("%w: model section %q, learner backend %q", ErrSnapshotMismatch, name, l.builder.Name())
		}
		mr, ok := l.builder.(model.Restorer)
		if !ok {
			return fmt.Errorf("core: model backend %q cannot restore snapshots", l.builder.Name())
		}
		mpay = pay[len(pay)-md.Remaining():]
		var err error
		mdl, err = mr.Restore(model.Params{
			Dim: len(l.pool.Features(0)),
			RNG: l.r.Split(l.builder.Name()),
		}, mpay)
		if err != nil {
			return err
		}
		if model.IsNil(mdl) {
			return fmt.Errorf("core: model backend %q restored a nil model", l.builder.Name())
		}
	} else if begun == nil || !begun.seeding {
		if acquired > 0 {
			return snapshot.Corruptf(secModel, "section missing with %d acquisitions", acquired)
		}
	}

	if begun != nil && begun.seeding != (mdl == nil) {
		return snapshot.Corruptf(secRound, "seeding round %v with a model section %v", begun.seeding, mdl != nil)
	}

	if err := l.ev.RestoreLedger(ledger); err != nil {
		return err
	}

	// Commit. From here on every assignment is infallible.
	l.r.SetState(st)
	l.acquired = acquired
	l.observations = observations
	l.revisits = revisits
	l.lastRoundCost = lastRoundCost
	l.lastSeq = lastSeq
	l.stoppedBy = stoppedBy
	l.order = order
	l.obsCount = make(map[int]int, len(order))
	for i, idx := range order {
		l.obsCount[idx] = counts[i]
	}
	if resid2 == nil {
		// The window size is untrusted input: it must not size an
		// allocation. Beyond the learner's own window the residuals
		// grow on demand.
		resid2 = make([]float64, 0, min(preqWindow, l.preq.window))
	}
	l.preq = &prequential{window: preqWindow, resid2: resid2, nextIdx: preqNext, filled: preqFilled}
	if preqNext >= preqWindow {
		l.preq.nextIdx = 0
	}
	l.curve = curve
	l.begun = begun
	if mdl != nil {
		// The bound pool is not part of the model snapshot; bind it
		// again (bit-neutral).
		l.attachModel(mdl)
	}
	return nil
}
