// Package execspace provides "exec/cc": a compiler-flag search space
// whose measurer shells out to a real toolchain instead of sampling a
// simulation. It is strictly opt-in and hermetic-safe:
//
//   - The space is always registered, so it shows up in listings and
//     can be described, but opening a Measurer fails with
//     ErrNotConfigured until both ALIC_EXEC_CC (compiler command) and
//     ALIC_EXEC_SRC (a C source file to tune) are set.
//   - Nothing in this package executes a process at init, registration,
//     or lookup time — only Measurer observations do, and unit tests
//     never configure the environment.
//   - The space implements space.Live, so §4.5 corpus generation and
//     the serving layer both reject it; only the live tuning path in
//     the facade and cmd/alic drives it.
//
// Each observation compiles ALIC_EXEC_SRC with the flags encoded by
// the configuration (compile time is the §4.3 compile charge, paid
// once per configuration) and then runs the produced binary once,
// reporting wall-clock seconds. ALIC_EXEC_TIMEOUT bounds each step
// (Go duration syntax, positive, default 30s).
package execspace

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"alic/internal/noise"
	"alic/internal/rng"
	"alic/internal/space"
)

// ErrNotConfigured reports that the exec toolchain environment is not
// set; assert with errors.Is.
var ErrNotConfigured = errors.New("exec space not configured (set ALIC_EXEC_CC and ALIC_EXEC_SRC)")

// ErrNoGroundTruth reports that a live space has no noise-free mean to
// report; assert with errors.Is.
var ErrNoGroundTruth = errors.New("live space has no ground-truth mean")

// Registration happens at init time (the cmd/alic-lint registry
// contract). Registering is inert: no process runs until a configured
// Measurer observes.
func init() {
	space.Register(New())
}

// optFlags maps the "opt" parameter value to the optimisation flag.
var optFlags = []string{"-O0", "-O1", "-O2", "-O3"}

// binFlags are the on/off dimensions: value 1 omits the flag, value 2
// adds it.
var binFlags = []struct {
	name string
	flag string
}{
	{"unroll", "-funroll-loops"},
	{"vectorize", "-ftree-vectorize"},
	{"fastmath", "-ffast-math"},
	{"omitfp", "-fomit-frame-pointer"},
}

// Space is the exec-backed compiler-flag space.
type Space struct {
	params []space.Param
}

// New returns the exec/cc space.
func New() *Space {
	ps := []space.Param{{Name: "opt", Max: len(optFlags)}}
	for _, b := range binFlags {
		ps = append(ps, space.Param{Name: b.name, Max: 2})
	}
	return &Space{params: ps}
}

// Name implements space.Space.
func (s *Space) Name() string { return "exec/cc" }

// Doc implements space.Space.
func (s *Space) Doc() string {
	return "compiler-flag space measured by executing a real toolchain (opt-in via ALIC_EXEC_*)"
}

// Params implements space.Space.
func (s *Space) Params() []space.Param {
	out := make([]space.Param, len(s.params))
	copy(out, s.params)
	return out
}

// Dim implements space.Space.
func (s *Space) Dim() int { return len(s.params) }

// Size implements space.Space.
func (s *Space) Size() float64 { return space.SizeOf(s.params) }

// Validate implements space.Space. The noise profile is the real
// machine's, so only the parameterisation is checked.
func (s *Space) Validate() error { return space.ValidateParams(s.params) }

// Check implements space.Space.
func (s *Space) Check(cfg space.Config) error { return space.CheckConfig(s.params, cfg) }

// Features implements space.Space.
func (s *Space) Features(cfg space.Config) []float64 {
	return space.UniformFeatures(s.params, cfg)
}

// Key implements space.Space.
func (s *Space) Key(cfg space.Config) uint64 { return space.HashConfig(s.Name(), cfg) }

// RandomConfig implements space.Space.
func (s *Space) RandomConfig(r *rng.Stream) space.Config {
	return space.UniformRandom(s.params, r)
}

// BaselineConfig implements space.Space: -O0 with every flag off.
func (s *Space) BaselineConfig() space.Config { return space.BaselineOnes(s.Dim()) }

// Noise implements space.Space. Live spaces have no simulated noise;
// the zero model documents that the machine underneath is the noise
// source.
func (s *Space) Noise() noise.Model { return noise.Model{} }

// Live implements space.Live: observations execute real commands.
func (s *Space) Live() bool { return true }

// Flags returns the compiler flags encoded by cfg.
func (s *Space) Flags(cfg space.Config) ([]string, error) {
	if err := s.Check(cfg); err != nil {
		return nil, err
	}
	flags := []string{optFlags[cfg[0]-1]}
	for i, b := range binFlags {
		if cfg[i+1] == 2 {
			flags = append(flags, b.flag)
		}
	}
	return flags, nil
}

// Measurer implements space.Space. It fails with ErrNotConfigured
// unless the toolchain environment is set; the seed is ignored (a real
// machine cannot be reseeded).
func (s *Space) Measurer(seed uint64) (space.Measurer, error) {
	cc := os.Getenv("ALIC_EXEC_CC")
	src := os.Getenv("ALIC_EXEC_SRC")
	if cc == "" || src == "" {
		return nil, ErrNotConfigured
	}
	if _, err := os.Stat(src); err != nil {
		return nil, fmt.Errorf("exec space source: %w", err)
	}
	timeout, err := parseTimeout(os.Getenv("ALIC_EXEC_TIMEOUT"))
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "alic-exec-")
	if err != nil {
		return nil, err
	}
	return &measurer{sp: s, cc: cc, src: src, dir: dir, timeout: timeout,
		built: make(map[uint64]*build)}, nil
}

// defaultTimeout bounds each compile and run when ALIC_EXEC_TIMEOUT is
// unset.
const defaultTimeout = 30 * time.Second

// parseTimeout reads an ALIC_EXEC_TIMEOUT value: empty means
// defaultTimeout, and anything else must be a positive Go duration (a
// zero or negative bound would time out every compile and run at
// once).
func parseTimeout(v string) (time.Duration, error) {
	if v == "" {
		return defaultTimeout, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("exec space: bad ALIC_EXEC_TIMEOUT: %w", err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("exec space: ALIC_EXEC_TIMEOUT must be positive, got %v", d)
	}
	return d, nil
}

// binName is the scratch-directory name of one configuration's binary.
func binName(key uint64) string { return fmt.Sprintf("bin-%016x", key) }

// build is the memoised compile result for one configuration.
type build struct {
	once    sync.Once
	bin     string
	compile float64
	err     error
}

type measurer struct {
	sp      *Space
	cc      string
	src     string
	dir     string
	timeout time.Duration

	mu    sync.Mutex
	built map[uint64]*build
}

// TrueMean implements space.Measurer: live spaces have no ground
// truth.
func (m *measurer) TrueMean(cfg space.Config) (float64, error) {
	return 0, ErrNoGroundTruth
}

// compileOnce compiles cfg at most once, timing the compile.
func (m *measurer) compileOnce(cfg space.Config) (*build, error) {
	flags, err := m.sp.Flags(cfg)
	if err != nil {
		return nil, err
	}
	key := m.sp.Key(cfg)
	m.mu.Lock()
	b, ok := m.built[key]
	if !ok {
		b = &build{}
		m.built[key] = b
	}
	m.mu.Unlock()
	b.once.Do(func() {
		bin := filepath.Join(m.dir, binName(key))
		args := append(flags, "-o", bin, m.src)
		ctx, cancel := context.WithTimeout(context.Background(), m.timeout)
		defer cancel()
		start := time.Now()
		out, err := exec.CommandContext(ctx, m.cc, args...).CombinedOutput()
		if err != nil {
			b.err = fmt.Errorf("exec space compile (%s %s): %w: %s",
				m.cc, strings.Join(args, " "), err, strings.TrimSpace(string(out)))
			return
		}
		b.bin = bin
		b.compile = time.Since(start).Seconds()
	})
	if b.err != nil {
		return nil, b.err
	}
	return b, nil
}

// CompileCost implements space.Measurer: the measured wall-clock
// compile time of cfg.
func (m *measurer) CompileCost(cfg space.Config) (float64, error) {
	b, err := m.compileOnce(cfg)
	if err != nil {
		return 0, err
	}
	return b.compile, nil
}

// Observe implements space.Measurer: one timed run of the compiled
// binary. The ordinal only distinguishes repeats; the machine supplies
// the noise.
func (m *measurer) Observe(cfg space.Config, ord int) (float64, error) {
	if ord < 0 {
		return 0, fmt.Errorf("execspace: negative observation index %d", ord)
	}
	b, err := m.compileOnce(cfg)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), m.timeout)
	defer cancel()
	start := time.Now()
	out, err := exec.CommandContext(ctx, b.bin).CombinedOutput()
	if err != nil {
		return 0, fmt.Errorf("exec space run %s: %w: %s",
			b.bin, err, strings.TrimSpace(string(out)))
	}
	return time.Since(start).Seconds(), nil
}

// Close removes the measurer's scratch directory.
func (m *measurer) Close() error { return os.RemoveAll(m.dir) }
