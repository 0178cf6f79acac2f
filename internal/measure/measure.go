// Package measure simulates the profiling environment of the paper's
// experiments: compiling a configuration of a search space and
// executing the resulting binary to obtain one (noisy) runtime
// observation.
//
// A Session keeps a space's measurement history: how many observations
// of each configuration have been taken, so a later measurement
// continues that configuration's noise stream instead of replaying it.
// It charges no cost. The §4.3 cost — compile time once per distinct
// configuration plus the runtime of every profiling run — is folded by
// the evaluator engine (internal/evaluator), which measures a session
// through an evaluator.SessionSource.
package measure

import (
	"fmt"
	"sync"

	"alic/internal/space"
)

// Session is a profiling session for one search space. It is safe
// for concurrent use: Reserve hands out observation ordinals under a
// lock, so concurrent callers over overlapping configurations get
// disjoint ordinals, and exactly one of them owns each configuration's
// first ordinal (and with it the compile).
type Session struct {
	sp   space.Space
	meas space.Measurer

	mu       sync.Mutex
	obsCount map[uint64]int
	runs     int
	compiles int
}

// NewSession creates a profiling session. The seed determines the
// measurement noise; sessions with equal seeds on simulated spaces
// reproduce identical observation sequences.
func NewSession(sp space.Space, seed uint64) (*Session, error) {
	if sp == nil {
		return nil, fmt.Errorf("measure: nil space")
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	meas, err := sp.Measurer(seed)
	if err != nil {
		return nil, err
	}
	return &Session{sp: sp, meas: meas, obsCount: make(map[uint64]int)}, nil
}

// Space returns the session's search space.
func (s *Session) Space() space.Space { return s.sp }

// TrueMean returns the noise-free mean runtime of cfg. Live spaces,
// which have no ground truth, return an error.
func (s *Session) TrueMean(cfg space.Config) (float64, error) {
	return s.meas.TrueMean(cfg)
}

// CompileCost returns the one-time compile cost of cfg.
func (s *Session) CompileCost(cfg space.Config) (float64, error) {
	return s.meas.CompileCost(cfg)
}

// At returns observation obsIdx of cfg without touching the session's
// history. On simulated spaces each (cfg, obsIdx) pair addresses its
// own deterministic noise draw, so At is pure, safe for any
// concurrency, and independent of evaluation order.
func (s *Session) At(cfg space.Config, obsIdx int) (float64, error) {
	if obsIdx < 0 {
		return 0, fmt.Errorf("measure: At with negative observation index %d", obsIdx)
	}
	return s.meas.Observe(cfg, obsIdx)
}

// Reserve appends n observations of every configuration in cfgs to the
// session's history in one locked step, and returns each
// configuration's first reserved ordinal: cfgs[i] owns ordinals
// first[i] .. first[i]+n-1, which no other reservation receives. A
// configuration whose first ordinal is 0 is compiled by this
// reservation. The configurations must be distinct and valid in the
// space; otherwise nothing is reserved. Reserved ordinals count as
// runs whether or not the caller goes on to measure them, so a failed
// measurement is never replayed by a later reservation.
func (s *Session) Reserve(cfgs []space.Config, n int) ([]int, error) {
	if n < 1 {
		return nil, fmt.Errorf("measure: Reserve with n=%d", n)
	}
	keys := make([]uint64, len(cfgs))
	seen := make(map[uint64]bool, len(cfgs))
	for i, cfg := range cfgs {
		if err := s.sp.Check(cfg); err != nil {
			return nil, err
		}
		keys[i] = s.sp.Key(cfg)
		if seen[keys[i]] {
			return nil, fmt.Errorf("measure: duplicate configuration at item %d", i)
		}
		seen[keys[i]] = true
	}
	first := make([]int, len(cfgs))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, key := range keys {
		first[i] = s.obsCount[key]
		if first[i] == 0 {
			s.compiles++
		}
		s.obsCount[key] += n
		s.runs += n
	}
	return first, nil
}

// Runs returns the total number of profiling runs reserved.
func (s *Session) Runs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs
}

// Compiles returns the number of distinct configurations reserved,
// each compiled once.
func (s *Session) Compiles() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compiles
}
