package noise

import (
	"math"
	"testing"
	"testing/quick"

	"alic/internal/stats"
)

func TestModelValidate(t *testing.T) {
	for _, m := range []Model{Quiet(), Moderate(), Loud()} {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	bad := []Model{
		{BaseRel: -1},
		{SpikeProb: 2},
		{DriftRho: 1},
		{DriftRho: -0.5},
		{SpikeRel: -0.1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Fatalf("case %d: invalid model accepted", i)
		}
	}
}

func TestNewSamplerValidation(t *testing.T) {
	if _, err := NewSampler(Model{BaseRel: -1}, 2, 1); err == nil {
		t.Fatal("invalid model accepted")
	}
	if _, err := NewSampler(Quiet(), 0, 1); err == nil {
		t.Fatal("zero dimension accepted")
	}
}

func TestSampleDeterministic(t *testing.T) {
	s, err := NewSampler(Moderate(), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	pos := []float64{0.2, 0.5, 0.9}
	a := s.Sample(1.0, pos, 42, 3)
	b := s.Sample(1.0, pos, 42, 3)
	if a != b {
		t.Fatalf("same (cfg, obs) produced %v and %v", a, b)
	}
	// Different observation index gives a different draw.
	if s.Sample(1.0, pos, 42, 4) == a {
		t.Fatal("different obsIdx produced identical sample")
	}
	// Different config key gives a different draw.
	if s.Sample(1.0, pos, 43, 3) == a {
		t.Fatal("different cfgKey produced identical sample")
	}
}

// TestSampleZeroAllocs pins that an observation allocates nothing:
// its noise and drift streams stay on the stack.
func TestSampleZeroAllocs(t *testing.T) {
	s, err := NewSampler(Loud(), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	pos := []float64{0.2, 0.5, 0.9}
	ord := 0
	if n := testing.AllocsPerRun(200, func() {
		s.Sample(1.0, pos, 42, ord)
		ord++
	}); n != 0 {
		t.Fatalf("Sample allocates %v times per call, want 0", n)
	}
}

func TestSampleOrderIndependent(t *testing.T) {
	// Observation j must not depend on whether earlier observations
	// were drawn.
	s, _ := NewSampler(Loud(), 2, 9)
	pos := []float64{0.4, 0.6}
	want := s.Sample(2.0, pos, 5, 7)
	s2, _ := NewSampler(Loud(), 2, 9)
	for j := 0; j < 7; j++ {
		s2.Sample(2.0, pos, 5, j)
	}
	if got := s2.Sample(2.0, pos, 5, 7); got != want {
		t.Fatalf("order dependence: %v vs %v", got, want)
	}
}

func TestSampleMeanNearMu(t *testing.T) {
	s, _ := NewSampler(Quiet(), 2, 11)
	pos := []float64{0.3, 0.3}
	var w stats.Welford
	for i := 0; i < 20000; i++ {
		w.Add(s.Sample(1.0, pos, uint64(i), 0))
	}
	// Spikes are one-sided so the mean sits slightly above mu, but for
	// a quiet profile it must be within a percent.
	if math.Abs(w.Mean()-1) > 0.01 {
		t.Fatalf("quiet sampler mean %v, want ~1.0", w.Mean())
	}
}

func TestSamplePositive(t *testing.T) {
	s, _ := NewSampler(Loud(), 2, 13)
	if err := quick.Check(func(k uint16, oi uint8, x, y uint8) bool {
		pos := []float64{float64(x) / 255, float64(y) / 255}
		v := s.Sample(0.5, pos, uint64(k), int(oi%35))
		return v > 0 && !math.IsNaN(v) && !math.IsInf(v, 0)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFieldInUnitRangeAndSmooth(t *testing.T) {
	s, _ := NewSampler(Moderate(), 2, 17)
	prev := -1.0
	for i := 0; i <= 100; i++ {
		x := float64(i) / 100
		v := s.Field([]float64{x, 0.5})
		if v < 0 || v > 1 {
			t.Fatalf("field out of [0,1]: %v", v)
		}
		if prev >= 0 && math.Abs(v-prev) > 0.2 {
			t.Fatalf("field jumped from %v to %v over 0.01 step", prev, v)
		}
		prev = v
	}
}

func TestHeteroskedasticity(t *testing.T) {
	// The variance must differ substantially between the quietest and
	// loudest field regions.
	s, _ := NewSampler(Loud(), 2, 19)
	// Find low- and high-field positions on a grid.
	var loPos, hiPos []float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0.0; i <= 1; i += 0.05 {
		for j := 0.0; j <= 1; j += 0.05 {
			p := []float64{i, j}
			f := s.Field(p)
			if f < lo {
				lo, loPos = f, p
			}
			if f > hi {
				hi, hiPos = f, p
			}
		}
	}
	varAt := func(p []float64) float64 {
		var w stats.Welford
		for i := 0; i < 4000; i++ {
			w.Add(s.Sample(1.0, p, 1234, i%35))
		}
		return w.Variance()
	}
	vLo, vHi := varAt(loPos), varAt(hiPos)
	if vHi < 10*vLo {
		t.Fatalf("heteroskedasticity too weak: lo %v hi %v", vLo, vHi)
	}
}

func TestSigmaReflectsField(t *testing.T) {
	s, _ := NewSampler(Moderate(), 2, 23)
	base := math.Sqrt(0.006*0.006 + 0.010*0.010)
	for _, p := range [][]float64{{0.1, 0.1}, {0.5, 0.5}, {0.9, 0.2}} {
		sig := s.Sigma(p)
		if sig < base-1e-12 {
			t.Fatalf("sigma %v below base %v", sig, base)
		}
		want := base * (1 + 5.0*s.Field(p))
		if math.Abs(sig-want) > 1e-12 {
			t.Fatalf("sigma %v, want %v", sig, want)
		}
	}
}

func TestDriftCorrelatesConsecutiveObservations(t *testing.T) {
	// With strong drift, consecutive observations of the same config
	// must be positively correlated (across many configs).
	m := Quiet()
	m.DriftRel = 0.05
	m.DriftRho = 0.9
	m.BaseRel = 0.001
	m.LayoutRel = 0.001
	m.SpikeProb = 0
	m.HeteroAmp = 0
	s, _ := NewSampler(m, 2, 29)
	pos := []float64{0.5, 0.5}
	var sxy, sx, sy, sx2, sy2 float64
	n := 3000
	for i := 0; i < n; i++ {
		a := s.Sample(1.0, pos, uint64(i), 0) - 1
		b := s.Sample(1.0, pos, uint64(i), 1) - 1
		sx += a
		sy += b
		sxy += a * b
		sx2 += a * a
		sy2 += b * b
	}
	fn := float64(n)
	cov := sxy/fn - sx/fn*sy/fn
	corr := cov / math.Sqrt((sx2/fn-sx*sx/fn/fn)*(sy2/fn-sy*sy/fn/fn))
	if corr < 0.5 {
		t.Fatalf("drift correlation %v too weak", corr)
	}
}

func TestSpikesAreOneSided(t *testing.T) {
	m := Quiet()
	m.SpikeProb = 0.5
	m.SpikeRel = 0.5
	m.BaseRel = 0
	m.LayoutRel = 0
	m.DriftRel = 0
	m.DriftRho = 0
	m.HeteroAmp = 0
	s, _ := NewSampler(m, 1, 31)
	slower := 0
	for i := 0; i < 2000; i++ {
		v := s.Sample(1.0, []float64{0.5}, uint64(i), 0)
		if v < 1.0-1e-12 {
			t.Fatalf("spike made a run faster: %v", v)
		}
		if v > 1.0+1e-9 {
			slower++
		}
	}
	if slower < 800 || slower > 1200 {
		t.Fatalf("spike rate %d/2000, want ~1000", slower)
	}
}

func TestNonPositiveMuPassesThrough(t *testing.T) {
	s, _ := NewSampler(Quiet(), 1, 37)
	if got := s.Sample(0, []float64{0.1}, 1, 0); got != 0 {
		t.Fatalf("mu=0 should pass through, got %v", got)
	}
}

func TestProfilesAreOrdered(t *testing.T) {
	// Average sigma over the space: Quiet < Moderate < Loud.
	avg := func(m Model) float64 {
		s, _ := NewSampler(m, 2, 41)
		total := 0.0
		n := 0
		for i := 0.05; i < 1; i += 0.1 {
			for j := 0.05; j < 1; j += 0.1 {
				total += s.Sigma([]float64{i, j})
				n++
			}
		}
		return total / float64(n)
	}
	q, mo, l := avg(Quiet()), avg(Moderate()), avg(Loud())
	if !(q < mo && mo < l) {
		t.Fatalf("profiles not ordered: quiet %v moderate %v loud %v", q, mo, l)
	}
}
