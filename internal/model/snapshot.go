package model

import (
	"alic/internal/dynatree"
	"alic/internal/gp"
	"alic/internal/snapshot"
)

// Snapshotter is an optional Model extension for backends that can
// serialize their complete state. The contract is the library-wide
// determinism bar: a model restored from Snapshot must produce
// byte-identical predictions, scores and updates to the original, at
// every worker count. Snapshot only reads the model, and its bytes
// depend only on the live state — for the dynatree forest, the live
// particle trees in canonical order, never the dead path copies its
// arena still holds — so two models in the same state encode alike.
type Snapshotter interface {
	Snapshot() []byte
}

// Restorer is an optional Builder extension for backends whose models
// can be reconstructed from a Snapshot payload. Params carries the
// same runtime knobs New receives (Workers in particular — restoring
// onto a different core count is explicitly supported); state is the
// payload a Snapshotter produced. Restore never consults SeedTargets:
// any empirical-Bayes calibration is already resolved inside the
// payload.
type Restorer interface {
	Restore(p Params, state []byte) (Model, error)
}

// The dynatree forest serializes natively.
var _ Snapshotter = (*dynatree.Forest)(nil)
var _ Restorer = DynatreeBuilder{}

// Restore reconstructs a forest from a Snapshot payload, applying the
// same Workers override New does.
func (b DynatreeBuilder) Restore(p Params, state []byte) (Model, error) {
	f, err := dynatree.Restore(state)
	if err != nil {
		return nil, err
	}
	if p.Workers != 0 {
		f.SetWorkers(p.Workers)
	}
	return f, nil
}

var _ Snapshotter = (*gpModel)(nil)
var _ Restorer = GPBuilder{}

// gpFormat versions the gp adapter payload.
const gpFormat = 1

// Snapshot serializes the adapter: resolved hyperparameters, the
// subset-of-data knobs, and the full observation history with the
// count not yet absorbed by a refit. The fitted posterior itself is
// not stored — refit is a deterministic function of the history
// prefix, so Restore replays it bit-exactly.
func (m *gpModel) Snapshot() []byte {
	dim := 0
	if len(m.xs) > 0 {
		dim = len(m.xs[0])
	}
	e := snapshot.NewEncoder(64 + len(m.xs)*(dim+1)*8)
	e.Int(gpFormat)
	cfg := m.g.Config()
	e.F64(cfg.LengthScale)
	e.F64(cfg.SignalVar)
	e.F64(cfg.NoiseVar)
	e.Int(m.maxPoints)
	e.Int(m.refitEvery)
	e.Int(dim)
	e.Int(len(m.xs))
	e.Int(m.pending)
	for _, x := range m.xs {
		for _, v := range x {
			e.F64(v)
		}
	}
	e.F64s(m.ys)
	return e.Bytes()
}

// Restore reconstructs the gp adapter from a Snapshot payload: rebuild
// the unfitted GP from the resolved hyperparameters, replay the last
// refit over the already-absorbed history prefix, then append the
// still-pending tail.
func (b GPBuilder) Restore(p Params, state []byte) (Model, error) {
	const sec = "model.gp"
	d := snapshot.NewDecoder(sec, state)
	if v := d.Int(); d.Err() == nil && v != gpFormat {
		return nil, snapshot.Corruptf(sec, "gp format %d, this build reads %d", v, gpFormat)
	}
	var cfg gp.Config
	cfg.LengthScale = d.F64()
	cfg.SignalVar = d.F64()
	cfg.NoiseVar = d.F64()
	maxPoints := d.Int()
	refitEvery := d.Int()
	dim := d.Int()
	n := d.Int()
	pending := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n < 0 || dim < 0 || n > 0 && dim < 1 || n*dim > d.Remaining()/8 {
		return nil, snapshot.Corruptf(sec, "%d points of dim %d with %d bytes left", n, dim, d.Remaining())
	}
	if pending < 0 || pending > n {
		return nil, snapshot.Corruptf(sec, "pending %d of %d points", pending, n)
	}
	if maxPoints < 2 || refitEvery < 1 {
		return nil, snapshot.Corruptf(sec, "maxPoints %d / refitEvery %d", maxPoints, refitEvery)
	}
	flat := make([]float64, 0, n*dim)
	for i := 0; i < n*dim; i++ {
		flat = append(flat, d.F64())
	}
	ys := d.F64s()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(ys) != n {
		return nil, snapshot.Corruptf(sec, "%d targets for %d points", len(ys), n)
	}
	g, err := gp.New(cfg)
	if err != nil {
		return nil, snapshot.Corruptf(sec, "invalid gp config: %v", err)
	}
	g.SetWorkers(p.Workers)
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	m := &gpModel{g: g, maxPoints: maxPoints, refitEvery: refitEvery}
	if fitted := n - pending; fitted > 0 {
		m.xs, m.ys = xs[:fitted], ys[:fitted]
		m.refit()
	}
	m.xs, m.ys = xs, ys
	m.pending = pending
	return m, nil
}
