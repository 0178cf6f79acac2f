package spapt

import (
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"alic/internal/costmodel"
	"alic/internal/rng"
)

func TestAllKernelsValidate(t *testing.T) {
	ks := Kernels()
	if len(ks) != 11 {
		t.Fatalf("suite has %d kernels, want 11", len(ks))
	}
	for _, k := range ks {
		if err := k.Validate(); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
}

func TestNamesMatchSuite(t *testing.T) {
	names := Names()
	ks := Kernels()
	if len(names) != len(ks) {
		t.Fatalf("Names() has %d entries, suite has %d", len(names), len(ks))
	}
	for i, k := range ks {
		if k.Name != names[i] {
			t.Fatalf("kernel %d is %q, Names says %q", i, k.Name, names[i])
		}
	}
}

// TestSpaceSizesMatchTable1 pins every kernel's search-space size to
// the value reported in Table 1 of the paper, within 1%.
func TestSpaceSizesMatchTable1(t *testing.T) {
	want := PaperTable1()
	for _, k := range Kernels() {
		paper, ok := want[k.Name]
		if !ok {
			t.Fatalf("kernel %q missing from Table 1 map", k.Name)
		}
		got := k.SpaceSize()
		if rel := math.Abs(got-paper) / paper; rel > 0.01 {
			t.Errorf("%s: space size %.4g vs paper %.4g (%.2f%% off)",
				k.Name, got, paper, rel*100)
		}
		if k.PaperSpaceSize != paper {
			t.Errorf("%s: PaperSpaceSize field %v != Table 1 %v", k.Name, k.PaperSpaceSize, paper)
		}
	}
}

func TestByName(t *testing.T) {
	k, err := ByName("gemver")
	if err != nil || k.Name != "gemver" {
		t.Fatalf("ByName(gemver) = %v, %v", k, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestBaselineCalibration(t *testing.T) {
	for _, k := range Kernels() {
		rt, err := k.TrueRuntime(k.BaselineConfig())
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if math.Abs(rt-k.BaselineTarget)/k.BaselineTarget > 1e-9 {
			t.Errorf("%s: baseline runtime %v, target %v", k.Name, rt, k.BaselineTarget)
		}
	}
}

func TestTrueRuntimePositiveDeterministic(t *testing.T) {
	r := rng.New(5)
	for _, k := range Kernels() {
		for trial := 0; trial < 20; trial++ {
			cfg := k.RandomConfig(r)
			a, err := k.TrueRuntime(cfg)
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			b, _ := k.TrueRuntime(cfg)
			if a != b {
				t.Fatalf("%s: non-deterministic runtime", k.Name)
			}
			if a <= 0 || a > 1000 {
				t.Fatalf("%s: runtime %v implausible", k.Name, a)
			}
		}
	}
}

func TestRuntimeVariesAcrossSpace(t *testing.T) {
	// The optimization space must actually matter: min and max runtime
	// over a random sample should differ by a meaningful factor.
	r := rng.New(6)
	for _, k := range Kernels() {
		lo, hi := math.Inf(1), math.Inf(-1)
		for trial := 0; trial < 200; trial++ {
			rt, err := k.TrueRuntime(k.RandomConfig(r))
			if err != nil {
				t.Fatal(err)
			}
			lo = math.Min(lo, rt)
			hi = math.Max(hi, rt)
		}
		if hi/lo < 1.2 {
			t.Errorf("%s: runtime range [%v, %v] too flat", k.Name, lo, hi)
		}
	}
}

func TestCompileTimePositive(t *testing.T) {
	r := rng.New(7)
	for _, k := range Kernels() {
		cfg := k.RandomConfig(r)
		ct, err := k.CompileTime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ct <= 0 || ct > 120 {
			t.Errorf("%s: compile time %v implausible", k.Name, ct)
		}
		base, _ := k.CompileTime(k.BaselineConfig())
		heavy := make(Config, len(k.Params))
		for i, p := range k.Params {
			heavy[i] = p.Max
		}
		hct, _ := k.CompileTime(heavy)
		if hct <= base {
			t.Errorf("%s: max-factor compile time %v not above baseline %v", k.Name, hct, base)
		}
	}
}

func TestTransformsMapping(t *testing.T) {
	k, _ := ByName("mm")
	cfg := k.BaselineConfig()
	ts, err := k.Transforms(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: no unrolling, no tiling anywhere.
	for _, tr := range ts {
		for _, l := range []string{"i", "j", "k"} {
			if tr.UnrollOf(l) != 1 || tr.RegTileOf(l) != 1 || tr.CacheTileOf(l) != 0 {
				t.Fatalf("baseline transform not identity: %v", tr)
			}
		}
	}
	// Set specific parameters and check they land on the right loops.
	cfg2 := k.BaselineConfig()
	for i, p := range k.Params {
		switch p.Name {
		case "U_j":
			cfg2[i] = 8
		case "T_k":
			cfg2[i] = 5
		}
	}
	ts2, _ := k.Transforms(cfg2)
	if got := ts2[0].UnrollOf("j"); got != 8 {
		t.Fatalf("unroll j = %d, want 8", got)
	}
	// Tile value 5 with quantum 4 means tile = 4*(5-1) = 16.
	if got := ts2[0].CacheTileOf("k"); got != 16 {
		t.Fatalf("cache tile k = %d, want 16", got)
	}
}

func TestCheckConfig(t *testing.T) {
	k, _ := ByName("mvt")
	if err := k.CheckConfig(k.BaselineConfig()); err != nil {
		t.Fatal(err)
	}
	if err := k.CheckConfig(Config{1, 1}); err == nil {
		t.Fatal("short config accepted")
	}
	bad := k.BaselineConfig()
	bad[0] = 0
	if err := k.CheckConfig(bad); err == nil {
		t.Fatal("value 0 accepted")
	}
	bad[0] = k.Params[0].Max + 1
	if err := k.CheckConfig(bad); err == nil {
		t.Fatal("value above Max accepted")
	}
}

func TestFeaturesInUnitInterval(t *testing.T) {
	r := rng.New(8)
	for _, k := range Kernels() {
		if err := quick.Check(func(seed uint32) bool {
			cfg := k.RandomConfig(r)
			f := k.Features(cfg)
			if len(f) != k.Dim() {
				return false
			}
			for _, v := range f {
				if v < 0 || v > 1 {
					return false
				}
			}
			return true
		}, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
	}
}

func TestFeaturesAreMonotoneInValue(t *testing.T) {
	k, _ := ByName("lu")
	a := k.BaselineConfig()
	b := k.BaselineConfig()
	b[0] = k.Params[0].Max
	fa, fb := k.Features(a), k.Features(b)
	if !(fa[0] == 0 && fb[0] == 1) {
		t.Fatalf("feature scaling wrong: %v %v", fa[0], fb[0])
	}
}

func TestRandomConfigBounds(t *testing.T) {
	r := rng.New(9)
	for _, k := range Kernels() {
		counts := make([]map[int]bool, k.Dim())
		for i := range counts {
			counts[i] = make(map[int]bool)
		}
		for trial := 0; trial < 500; trial++ {
			cfg := k.RandomConfig(r)
			if err := k.CheckConfig(cfg); err != nil {
				t.Fatalf("%s: random config invalid: %v", k.Name, err)
			}
			for i, v := range cfg {
				counts[i][v] = true
			}
		}
		// Every parameter should show some diversity.
		for i, seen := range counts {
			if len(seen) < 2 {
				t.Fatalf("%s: param %d never varied", k.Name, i)
			}
		}
	}
}

func TestKeyDistinguishesConfigs(t *testing.T) {
	k, _ := ByName("adi")
	r := rng.New(10)
	seen := make(map[uint64]bool)
	for i := 0; i < 2000; i++ {
		cfg := k.RandomConfig(r)
		seen[k.Key(cfg)] = true
	}
	// Collisions in 2000 draws from a 3.8e14 space are overwhelmingly
	// unlikely; allow a couple for duplicate configs.
	if len(seen) < 1995 {
		t.Fatalf("too many key collisions: %d unique of 2000", len(seen))
	}
	// Same config must produce the same key; kernels must salt keys.
	cfg := k.RandomConfig(r)
	if k.Key(cfg) != k.Key(cfg) {
		t.Fatal("key not deterministic")
	}
	k2, _ := ByName("correlation")
	cfg2 := make(Config, k2.Dim())
	copy(cfg2, cfg)
	if k.Key(cfg) == k2.Key(cfg2) {
		t.Fatal("different kernels share keys for equal configs")
	}
}

// fnvKey is Key's definition spelled with hash/fnv: FNV-1a over the
// name, then each value as eight little-endian bytes.
func fnvKey(name string, cfg Config) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	var buf [8]byte
	for _, v := range cfg {
		for i := 0; i < 8; i++ {
			buf[i] = byte(uint64(v) >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestKeyMatchesFNV: Key, which starts from a state cached after the
// kernel name, equals FNV-1a over name and configuration on random
// configurations of every kernel, also after a rename or a retarget.
func TestKeyMatchesFNV(t *testing.T) {
	r := rng.New(11)
	for _, k := range Kernels() {
		other, err := k.WithMachine(costmodel.DefaultMachine())
		if err != nil {
			t.Fatal(err)
		}
		renamed := *k
		renamed.Name = k.Name + "-renamed"
		for _, kk := range []*Kernel{k, other, &renamed} {
			for i := 0; i < 50; i++ {
				cfg := kk.RandomConfig(r)
				if got, want := kk.Key(cfg), fnvKey(kk.Name, cfg); got != want {
					t.Fatalf("%s %v: Key %#x, want FNV-1a %#x", kk.Name, cfg, got, want)
				}
			}
		}
	}
}

func TestValidateCatchesBrokenKernels(t *testing.T) {
	k, _ := ByName("mm")
	k.Params[0].Nest = 99
	if err := k.Validate(); err == nil {
		t.Fatal("out-of-range nest accepted")
	}
	k2, _ := ByName("mm")
	k2.Params[0].Loop = "zzz"
	if err := k2.Validate(); err == nil {
		t.Fatal("unknown loop accepted")
	}
	k3, _ := ByName("mm")
	k3.Params = nil
	if err := k3.Validate(); err == nil {
		t.Fatal("empty params accepted")
	}
	k4, _ := ByName("mm")
	k4.Params[1].Name = k4.Params[0].Name
	if err := k4.Validate(); err == nil {
		t.Fatal("duplicate param names accepted")
	}
}

func TestUnrollShapesRuntime(t *testing.T) {
	// Sweep a single unroll parameter of adi: the runtime curve should
	// show the Figure-2 plateau-climb structure — monotone trend with
	// bounded total growth, not noise.
	k, _ := ByName("adi")
	uIdx := -1
	for i, p := range k.Params {
		if p.Name == "U_R_j" {
			uIdx = i
			break
		}
	}
	if uIdx < 0 {
		t.Fatal("adi missing U_R_j")
	}
	cfg := k.BaselineConfig()
	var curve []float64
	for v := 1; v <= 30; v++ {
		cfg[uIdx] = v
		rt, err := k.TrueRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		curve = append(curve, rt)
	}
	// The curve must vary and the late region must flatten (plateau):
	// growth over the last five factors is small relative to total.
	total := math.Abs(curve[29] - curve[0])
	if total < 0.01*curve[0] {
		t.Fatalf("unroll has no effect on adi: %v", curve)
	}
	late := math.Abs(curve[29] - curve[24])
	if late > 0.5*total {
		t.Fatalf("no late plateau: late growth %v of total %v", late, total)
	}
}

func TestSuiteIsolation(t *testing.T) {
	// Kernels() must return fresh values: mutating one suite must not
	// affect another.
	a, _ := ByName("mm")
	a.Params[0].Max = 2
	b, _ := ByName("mm")
	if b.Params[0].Max == 2 {
		t.Fatal("Kernels() shares state between calls")
	}
}

func TestParamKindString(t *testing.T) {
	if Unroll.String() != "unroll" || RegTile.String() != "regtile" ||
		CacheTile.String() != "cachetile" {
		t.Fatal("ParamKind strings wrong")
	}
	if ParamKind(99).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestWithMachine(t *testing.T) {
	k, _ := ByName("gemver")
	m2, err := k.WithMachine(costmodel.MobileMachine())
	if err != nil {
		t.Fatal(err)
	}
	if m2.Machine().Name == k.Machine().Name {
		t.Fatal("machine not switched")
	}
	// Both calibrated to the same baseline target.
	a, _ := k.TrueRuntime(k.BaselineConfig())
	b, _ := m2.TrueRuntime(m2.BaselineConfig())
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("baselines differ after recalibration: %v vs %v", a, b)
	}
	// But non-baseline configs rank differently somewhere: find a
	// config whose relative cost differs meaningfully across machines.
	r := rng.New(77)
	found := false
	for i := 0; i < 200 && !found; i++ {
		cfg := k.RandomConfig(r)
		ra, _ := k.TrueRuntime(cfg)
		rb, _ := m2.TrueRuntime(cfg)
		if math.Abs(ra/a-rb/b) > 0.05 {
			found = true
		}
	}
	if !found {
		t.Fatal("machines agree on every config; retargeting has no effect")
	}
	// Original kernel untouched.
	if k.Machine().Name != costmodel.DefaultMachine().Name {
		t.Fatal("WithMachine mutated the receiver")
	}
	// Invalid machine rejected.
	var bad costmodel.Machine
	if _, err := k.WithMachine(bad); err == nil {
		t.Fatal("invalid machine accepted")
	}
}

func TestDescribe(t *testing.T) {
	k, _ := ByName("mm")
	cfg := k.BaselineConfig()
	for i, p := range k.Params {
		if p.Name == "U_j" {
			cfg[i] = 4
		}
	}
	out, err := k.Describe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"kernel mm:",
		"U_j", "unroll",
		"// nest mm",
		"unroll 4",
		"C[i][j] = f(",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Describe missing %q:\n%s", want, out)
		}
	}
	if _, err := k.Describe(Config{1}); err == nil {
		t.Fatal("bad config accepted")
	}
}
