package evaluator

import (
	"fmt"

	"alic/internal/dataset"
	"alic/internal/measure"
	"alic/internal/space"
)

// DatasetSource measures a pre-generated §4.5 dataset's training
// pool: item i is the i-th training configuration, and observation
// (i, ord) is the dataset's ord-th noise draw for it, computed on
// demand — a pure function, safe for any concurrency. The compile
// cost rides on each item's ordinal-zero sample, charged by the engine
// ledger once per item.
type DatasetSource struct {
	ds *dataset.Dataset
}

// NewDatasetSource adapts a dataset to the Source interface.
func NewDatasetSource(ds *dataset.Dataset) (*DatasetSource, error) {
	if ds == nil {
		return nil, fmt.Errorf("evaluator: nil dataset")
	}
	return &DatasetSource{ds: ds}, nil
}

// Measure implements Source over the training pool.
func (s *DatasetSource) Measure(i, ord int) (Sample, error) {
	if i >= len(s.ds.TrainIdx) {
		return Sample{}, fmt.Errorf("evaluator: pool index %d outside training pool of %d", i, len(s.ds.TrainIdx))
	}
	idx := s.ds.TrainIdx[i]
	y, err := s.ds.Observe(idx, ord)
	if err != nil {
		return Sample{}, err
	}
	out := Sample{Value: y}
	if ord == 0 {
		if out.Compile, err = s.ds.CompileCost(idx); err != nil {
			return Sample{}, err
		}
	}
	return out, nil
}

// SessionSource measures a fixed set of configurations through a
// profiling session: item i is cfgs[i], and observation (i, ord)
// draws the session's deterministic noise stream at the ordinal the
// session had reached when the source was built, plus ord — so an
// engine-driven measurement sequence continues a session's serial
// history exactly. Compile cost rides on ordinal zero unless the
// session had already compiled the configuration. Measurement is pure
// (the session's own counters and cost are not touched); the engine
// ledger owns the accounting.
type SessionSource struct {
	sess *measure.Session
	cfgs []space.Config
	base []int     // session observation count at construction
	ct   []float64 // compile cost to charge at ordinal zero (0 if compiled)
}

// NewSessionSource adapts a session and a candidate set to the Source
// interface. The configurations must be distinct (the engine keys its
// ordinal streams by item index, so duplicates would replay the same
// noise draws and double-charge compilation).
func NewSessionSource(sess *measure.Session, cfgs []space.Config) (*SessionSource, error) {
	if sess == nil {
		return nil, fmt.Errorf("evaluator: nil session")
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("evaluator: empty configuration set")
	}
	sp := sess.Space()
	src := &SessionSource{
		sess: sess,
		cfgs: cfgs,
		base: make([]int, len(cfgs)),
		ct:   make([]float64, len(cfgs)),
	}
	seen := make(map[uint64]bool, len(cfgs))
	for i, cfg := range cfgs {
		key := sp.Key(cfg)
		if seen[key] {
			return nil, fmt.Errorf("evaluator: duplicate configuration at item %d", i)
		}
		seen[key] = true
		src.base[i] = sess.Observations(cfg)
		if !sess.Compiled(cfg) {
			ct, err := sess.CompileCost(cfg)
			if err != nil {
				return nil, err
			}
			src.ct[i] = ct
		}
	}
	return src, nil
}

// Measure implements Source over the candidate set.
func (s *SessionSource) Measure(i, ord int) (Sample, error) {
	if i >= len(s.cfgs) {
		return Sample{}, fmt.Errorf("evaluator: item %d outside candidate set of %d", i, len(s.cfgs))
	}
	y, err := s.sess.At(s.cfgs[i], s.base[i]+ord)
	if err != nil {
		return Sample{}, err
	}
	out := Sample{Value: y}
	if ord == 0 {
		out.Compile = s.ct[i]
	}
	return out, nil
}

// SpaceSource measures a fixed set of configurations directly through
// a space measurer — the source behind live spaces (exec-backed
// toolchains), which have no pre-generated corpus. Item i is cfgs[i];
// observation (i, ord) asks the measurer for ordinal ord, and the
// compile cost rides on each item's ordinal-zero sample. Simulated
// measurers make this source pure; live measurers are only as
// repeatable as the machine underneath, so drive them with a
// single-worker engine when order matters.
type SpaceSource struct {
	meas space.Measurer
	cfgs []space.Config
}

// NewSpaceSource adapts a measurer and a candidate set to the Source
// interface.
func NewSpaceSource(meas space.Measurer, cfgs []space.Config) (*SpaceSource, error) {
	if meas == nil {
		return nil, fmt.Errorf("evaluator: nil measurer")
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("evaluator: empty configuration set")
	}
	return &SpaceSource{meas: meas, cfgs: cfgs}, nil
}

// Measure implements Source over the candidate set.
func (s *SpaceSource) Measure(i, ord int) (Sample, error) {
	if i >= len(s.cfgs) {
		return Sample{}, fmt.Errorf("evaluator: item %d outside candidate set of %d", i, len(s.cfgs))
	}
	y, err := s.meas.Observe(s.cfgs[i], ord)
	if err != nil {
		return Sample{}, err
	}
	out := Sample{Value: y}
	if ord == 0 {
		ct, err := s.meas.CompileCost(s.cfgs[i])
		if err != nil {
			return Sample{}, err
		}
		out.Compile = ct
	}
	return out, nil
}
