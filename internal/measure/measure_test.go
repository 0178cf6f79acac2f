package measure

import (
	"math"
	"sync"
	"testing"

	"alic/internal/rng"
	"alic/internal/space"
	"alic/internal/space/spaptspace"
	"alic/internal/spapt"
	"alic/internal/stats"
)

func session(t *testing.T, name string, seed uint64) *Session {
	t.Helper()
	sp, err := space.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSessionValidation(t *testing.T) {
	if _, err := NewSession(nil, 1); err == nil {
		t.Fatal("nil space accepted")
	}
	k, _ := spapt.ByName("mm")
	k.Params = nil
	sp, err := spaptspace.Wrap(k)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession(sp, 1); err == nil {
		t.Fatal("invalid space accepted")
	}
}

func TestReserveChargesCompileOnce(t *testing.T) {
	s := session(t, "mvt", 3)
	cfg := s.Space().BaselineConfig()

	first, err := s.Reserve([]space.Config{cfg}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if first[0] != 0 || s.Compiles() != 1 || s.Runs() != 1 {
		t.Fatalf("first=%v compiles=%d runs=%d after first reservation", first, s.Compiles(), s.Runs())
	}

	// A second reservation of the same config continues its history
	// and does not compile it again.
	first, err = s.Reserve([]space.Config{cfg}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if first[0] != 1 {
		t.Fatalf("revisit starts at ordinal %d, want 1", first[0])
	}
	if s.Compiles() != 1 {
		t.Fatal("revisit recompiled the binary")
	}
	if s.Runs() != 3 {
		t.Fatalf("runs=%d after three reserved observations", s.Runs())
	}
	if _, err := s.Reserve([]space.Config{cfg}, 0); err == nil {
		t.Fatal("Reserve(n=0) accepted")
	}
}

func TestDistinctConfigsEachCompile(t *testing.T) {
	s := session(t, "mvt", 4)
	a := s.Space().BaselineConfig()
	b := s.Space().BaselineConfig()
	b[0] = 5
	first, err := s.Reserve([]space.Config{a, b}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if first[0] != 0 || first[1] != 0 {
		t.Fatalf("distinct configs start at ordinals %v, want [0 0]", first)
	}
	if s.Compiles() != 2 {
		t.Fatalf("compiles=%d, want 2", s.Compiles())
	}
}

func TestObservationsAverageToTrueMean(t *testing.T) {
	s := session(t, "lu", 5) // quiet kernel: tight averaging
	cfg := s.Space().BaselineConfig()
	mu, err := s.TrueMean(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var w stats.Welford
	for i := 0; i < 300; i++ {
		y, err := s.At(cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		if y <= 0 {
			t.Fatalf("non-positive runtime %v", y)
		}
		w.Add(y)
	}
	if math.Abs(w.Mean()-mu)/mu > 0.05 {
		t.Fatalf("observed mean %v too far from true mean %v", w.Mean(), mu)
	}
}

func TestSessionsReproducible(t *testing.T) {
	a := session(t, "gemver", 7)
	b := session(t, "gemver", 7)
	cfg := a.Space().BaselineConfig()
	for i := 0; i < 10; i++ {
		ya, _ := a.At(cfg, i)
		yb, _ := b.At(cfg, i)
		if ya != yb {
			t.Fatalf("same seed diverged at observation %d", i)
		}
	}
	c := session(t, "gemver", 8)
	yc, _ := c.At(cfg, 0)
	ya, _ := a.At(cfg, 0)
	if yc == ya {
		t.Fatal("different seeds produced identical observation")
	}
}

func TestAtRejectsBadConfig(t *testing.T) {
	s := session(t, "mm", 10)
	good := s.Space().BaselineConfig()
	if _, err := s.At(space.Config{1}, 0); err == nil {
		t.Fatal("short config accepted")
	}
	// A reservation with a bad or repeated config reserves nothing.
	if _, err := s.Reserve([]space.Config{good, {1}}, 1); err == nil {
		t.Fatal("Reserve accepted a short config")
	}
	if _, err := s.Reserve([]space.Config{good, good}, 1); err == nil {
		t.Fatal("Reserve accepted a repeated config")
	}
	if s.Runs() != 0 || s.Compiles() != 0 {
		t.Fatalf("failed reservation advanced history: runs=%d compiles=%d", s.Runs(), s.Compiles())
	}
	first, err := s.Reserve([]space.Config{good}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if first[0] != 0 {
		t.Fatalf("failed reservation consumed ordinals: next starts at %d", first[0])
	}
}

// TestConcurrentReserveStress pins the session's concurrency
// contract: goroutines reserving overlapping configuration sets must
// receive disjoint ordinal blocks that tile each config's history
// from 0, count every run, and count each compile exactly once — one
// reservation per config starts at ordinal 0.
func TestConcurrentReserveStress(t *testing.T) {
	s := session(t, "gemver", 12)
	sp := s.Space()
	r := rng.New(41)
	const nConfigs, goroutines, perG, n = 6, 8, 40, 3
	cfgs := make([]space.Config, nConfigs)
	for i := range cfgs {
		cfgs[i] = sp.RandomConfig(r)
	}

	// got[g][j] is the first ordinal goroutine g received for its j-th
	// reservation, of cfgs[(g+j)%nConfigs] and cfgs[(g+j+1)%nConfigs].
	got := make([][][]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				pair := []space.Config{cfgs[(g+j)%nConfigs], cfgs[(g+j+1)%nConfigs]}
				first, err := s.Reserve(pair, n)
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], first)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	const totalRuns = goroutines * perG * 2 * n
	if s.Runs() != totalRuns {
		t.Fatalf("runs = %d, want %d", s.Runs(), totalRuns)
	}
	if s.Compiles() != nConfigs {
		t.Fatalf("compiles = %d, want exactly %d (no double-charging)", s.Compiles(), nConfigs)
	}
	starts := make([]map[int]bool, nConfigs)
	for i := range starts {
		starts[i] = make(map[int]bool)
	}
	for g := range got {
		for j, first := range got[g] {
			for k, ord := range first {
				c := (g + j + k) % nConfigs
				if ord%n != 0 || starts[c][ord] {
					t.Fatalf("config %d: block at ordinal %d overlaps another reservation", c, ord)
				}
				starts[c][ord] = true
			}
		}
	}
	for c, blocks := range starts {
		for b := 0; b < len(blocks); b++ {
			if !blocks[b*n] {
				t.Fatalf("config %d: %d blocks reserved but none starts at ordinal %d", c, len(blocks), b*n)
			}
		}
	}
}

// TestAtMatchesSerialObserve pins the pure observation primitive: At
// (cfg, i) returns exactly what the space's measurer returns for
// observation i, without advancing the session's history.
func TestAtMatchesSerialObserve(t *testing.T) {
	s := session(t, "atax", 13)
	cfg := s.Space().BaselineConfig()
	meas, err := s.Space().Measurer(13)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		want, err := meas.Observe(cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		y, err := s.At(cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		if y != want {
			t.Fatalf("At(cfg, %d) = %v, want the measurer's draw %v", i, y, want)
		}
	}
	if s.Runs() != 0 || s.Compiles() != 0 {
		t.Fatal("At advanced the session's history")
	}
	if _, err := s.At(cfg, -1); err == nil {
		t.Fatal("negative observation index accepted")
	}
}
