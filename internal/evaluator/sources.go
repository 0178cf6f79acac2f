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
// profiling session: item i is cfgs[i], and observation (i, ord) draws
// the session's deterministic noise stream at ordinal first[i]+ord,
// where first[i] is the start of the block of n ordinals the source
// reserved on the session when it was built. Sources built on one
// session therefore never share an ordinal, and an engine-driven
// sequence continues the session's history instead of replaying it.
// Compile cost rides on ordinal zero of an item whose reservation
// starts the configuration's history. Measurement is pure; the engine
// ledger owns the accounting.
type SessionSource struct {
	sess  *measure.Session
	cfgs  []space.Config
	first []int // first reserved session ordinal of each item
	n     int   // ordinals reserved per item
}

// NewSessionSource adapts a session and a candidate set to the Source
// interface, reserving n observations of every configuration on the
// session in one step. The configurations must be distinct, as
// Session.Reserve requires.
func NewSessionSource(sess *measure.Session, cfgs []space.Config, n int) (*SessionSource, error) {
	if sess == nil {
		return nil, fmt.Errorf("evaluator: nil session")
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("evaluator: empty configuration set")
	}
	first, err := sess.Reserve(cfgs, n)
	if err != nil {
		return nil, err
	}
	return &SessionSource{sess: sess, cfgs: cfgs, first: first, n: n}, nil
}

// Measure implements Source over the candidate set. Ordinals outside
// [0, n) would read history other reservations own, so they are
// rejected.
func (s *SessionSource) Measure(i, ord int) (Sample, error) {
	if i >= len(s.cfgs) {
		return Sample{}, fmt.Errorf("evaluator: item %d outside candidate set of %d", i, len(s.cfgs))
	}
	if ord < 0 || ord >= s.n {
		return Sample{}, fmt.Errorf("evaluator: ordinal %d outside the %d reserved for item %d", ord, s.n, i)
	}
	y, err := s.sess.At(s.cfgs[i], s.first[i]+ord)
	if err != nil {
		return Sample{}, err
	}
	out := Sample{Value: y}
	if ord == 0 && s.first[i] == 0 {
		if out.Compile, err = s.sess.CompileCost(s.cfgs[i]); err != nil {
			return Sample{}, err
		}
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
