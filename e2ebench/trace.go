package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"alic"
	"alic/internal/dynatree"
	"alic/internal/model"
)

// tracer accumulates the traced run's layer counters: for every named
// boundary, the summed span time, the number of calls and the units of
// work (rows, candidates, bytes) they carried, plus raw durations for
// the boundaries reported as percentiles. Spans stay in memory and are
// read once when the run ends. A nil *tracer records nothing, so the
// untraced run pays only the nil checks.
type tracer struct {
	mu      sync.Mutex
	layers  map[string]*layerTotal
	samples map[string][]time.Duration
}

type layerTotal struct {
	ns    int64
	calls int64
	units int64
}

func newTracer() *tracer {
	return &tracer{layers: make(map[string]*layerTotal), samples: make(map[string][]time.Duration)}
}

// add records one span of layer name that carried units of work.
func (t *tracer) add(name string, d time.Duration, units int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	l := t.layers[name]
	if l == nil {
		l = &layerTotal{}
		t.layers[name] = l
	}
	l.ns += int64(d)
	l.calls++
	l.units += int64(units)
	t.mu.Unlock()
}

// sample records one duration of a boundary reported by percentile.
func (t *tracer) sample(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], d)
	t.mu.Unlock()
}

// total returns a copy of one layer's counters.
func (t *tracer) total(name string) layerTotal {
	if t == nil {
		return layerTotal{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if l := t.layers[name]; l != nil {
		return *l
	}
	return layerTotal{}
}

// modelNS is the summed time of every model-boundary span so far; a
// caller's self time is its span minus the model time recorded inside
// it (the learner calls its model from one goroutine at a time, so
// the child spans never overlap).
func (t *tracer) modelNS() int64 {
	var ns int64
	for _, name := range modelLayers {
		ns += t.total(name).ns
	}
	return ns
}

// percentile returns the p-th percentile of a sampled boundary in
// seconds, 0 when it has no samples.
func (t *tracer) percentile(name string, p float64) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	ds := append([]time.Duration(nil), t.samples[name]...)
	t.mu.Unlock()
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return quantile(xs, p)
}

// The model boundary's layers, in reporting order.
var modelLayers = []string{"model.score", "model.update", "model.predict", "model.bind", "model.snapshot"}

// tracedForest is the model boundary of the traced run: the dynatree
// forest with its learner-facing entry points timed. Embedding keeps
// every optional interface of *dynatree.Forest (the assertions below
// pin them), so the learner takes the same indexed scoring, batched
// update and snapshot paths as in the untraced run.
type tracedForest struct {
	*dynatree.Forest
	tr *tracer
}

var (
	_ model.Model        = (*tracedForest)(nil)
	_ model.PoolBinder   = (*tracedForest)(nil)
	_ model.RoundUpdater = (*tracedForest)(nil)
	_ model.Snapshotter  = (*tracedForest)(nil)
	_ model.Importancer  = (*tracedForest)(nil)
)

func (m *tracedForest) ALCIndexed(cands, refs []int) []float64 {
	t0 := time.Now()
	out := m.Forest.ALCIndexed(cands, refs)
	m.tr.add("model.score", time.Since(t0), len(cands))
	return out
}

func (m *tracedForest) ALCScores(cands, refs [][]float64) []float64 {
	t0 := time.Now()
	out := m.Forest.ALCScores(cands, refs)
	m.tr.add("model.score", time.Since(t0), len(cands))
	return out
}

func (m *tracedForest) Update(x []float64, y float64) {
	t0 := time.Now()
	m.Forest.Update(x, y)
	m.tr.add("model.update", time.Since(t0), 1)
}

func (m *tracedForest) UpdateRound(xs [][]float64, ys, preds []float64) {
	t0 := time.Now()
	m.Forest.UpdateRound(xs, ys, preds)
	m.tr.add("model.update", time.Since(t0), len(xs))
}

func (m *tracedForest) PredictMeanFast(x []float64) float64 {
	t0 := time.Now()
	out := m.Forest.PredictMeanFast(x)
	m.tr.add("model.predict", time.Since(t0), 1)
	return out
}

func (m *tracedForest) PredictMeanFastBatch(xs [][]float64) []float64 {
	t0 := time.Now()
	out := m.Forest.PredictMeanFastBatch(xs)
	m.tr.add("model.predict", time.Since(t0), len(xs))
	return out
}

func (m *tracedForest) PredictMeanFastIndexed(ids []int) []float64 {
	t0 := time.Now()
	out := m.Forest.PredictMeanFastIndexed(ids)
	m.tr.add("model.predict", time.Since(t0), len(ids))
	return out
}

func (m *tracedForest) BindPool(rows [][]float64) {
	t0 := time.Now()
	m.Forest.BindPool(rows)
	m.tr.add("model.bind", time.Since(t0), len(rows))
}

func (m *tracedForest) Snapshot() []byte {
	t0 := time.Now()
	out := m.Forest.Snapshot()
	m.tr.add("model.snapshot", time.Since(t0), len(out))
	return out
}

// tracedBuilder builds tracedForest models. Its Name is "dynatree", so
// the learner derives the same model random stream and snapshot guard
// as with the built-in backend; cfg must be the tree configuration the
// untraced run's learner would use.
type tracedBuilder struct {
	cfg alic.ModelConfig
	tr  *tracer
}

func (tracedBuilder) Name() string { return "dynatree" }

func (b tracedBuilder) New(p model.Params) (model.Model, error) {
	return b.wrap(model.DynatreeBuilder{Config: b.cfg}.New(p))
}

// Restore rebuilds a traced model from a snapshot, as the built-in
// dynatree builder does, so traced sessions restore from checkpoints.
func (b tracedBuilder) Restore(p model.Params, state []byte) (model.Model, error) {
	return b.wrap(model.DynatreeBuilder{}.Restore(p, state))
}

func (b tracedBuilder) wrap(m model.Model, err error) (model.Model, error) {
	if err != nil {
		return nil, err
	}
	f, ok := m.(*dynatree.Forest)
	if !ok {
		return nil, fmt.Errorf("dynatree builder returned %T", m)
	}
	return &tracedForest{Forest: f, tr: b.tr}, nil
}

var _ model.Restorer = tracedBuilder{}

// quantile returns the p-th quantile (0..100) of xs by linear
// interpolation between closest ranks.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}
