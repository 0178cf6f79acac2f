package space

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"alic/internal/noise"
	"alic/internal/rng"
)

// fake is a minimal space for registry tests.
type fake struct {
	name string
	live bool
}

func (f *fake) Name() string                      { return f.name }
func (f *fake) Doc() string                       { return "test space" }
func (f *fake) Params() []Param                   { return []Param{{Name: "a", Max: 4}, {Name: "b", Max: 1}} }
func (f *fake) Dim() int                          { return 2 }
func (f *fake) Size() float64                     { return SizeOf(f.Params()) }
func (f *fake) Validate() error                   { return ValidateParams(f.Params()) }
func (f *fake) Check(cfg Config) error            { return CheckConfig(f.Params(), cfg) }
func (f *fake) Features(cfg Config) []float64     { return UniformFeatures(f.Params(), cfg) }
func (f *fake) Key(cfg Config) uint64             { return HashConfig(f.name, cfg) }
func (f *fake) RandomConfig(r *rng.Stream) Config { return UniformRandom(f.Params(), r) }
func (f *fake) BaselineConfig() Config            { return BaselineOnes(f.Dim()) }
func (f *fake) Noise() noise.Model                { return noise.Quiet() }
func (f *fake) Live() bool                        { return f.live }
func (f *fake) Measurer(seed uint64) (Measurer, error) {
	return nil, errors.New("fake space has no measurer")
}

func TestRegistry(t *testing.T) {
	Register(&fake{name: "test/registry-a"})
	Register(&fake{name: "test/registry-b"})

	sp, err := ByName("test/registry-a")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name() != "test/registry-a" {
		t.Fatalf("lookup returned %q", sp.Name())
	}

	_, err = ByName("test/definitely-missing")
	if !errors.Is(err, ErrUnknownSpace) {
		t.Fatalf("unknown lookup: err = %v, want ErrUnknownSpace", err)
	}
	// The taxonomy contract: the error names the missing space and
	// lists what is registered, so serving-layer rejections are
	// actionable.
	for _, want := range []string{"test/definitely-missing", "test/registry-a", "test/registry-b"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("lookup error %q does not mention %q", err, want)
		}
	}

	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	found := false
	for _, n := range names {
		if n == "test/registry-a" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names() missing registration: %v", names)
	}
}

func TestIsLive(t *testing.T) {
	if IsLive(&fake{name: "x"}) {
		t.Fatal("non-live space reported live")
	}
	if !IsLive(&fake{name: "x", live: true}) {
		t.Fatal("live space not reported")
	}
}

func TestCheckConfig(t *testing.T) {
	params := []Param{{Name: "a", Max: 4}, {Name: "b", Max: 2}}
	if err := CheckConfig(params, Config{1, 2}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{{1}, {1, 2, 3}, {0, 1}, {5, 1}, {1, 3}} {
		if err := CheckConfig(params, bad); err == nil {
			t.Fatalf("config %v accepted", bad)
		}
	}
}

func TestUniformFeatures(t *testing.T) {
	params := []Param{{Name: "a", Max: 5}, {Name: "single", Max: 1}}
	got := UniformFeatures(params, Config{1, 1})
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("lower bound features %v, want [0 0]", got)
	}
	got = UniformFeatures(params, Config{5, 1})
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("upper bound features %v, want [1 0] (single-valued dim pins to 0)", got)
	}
	got = UniformFeatures(params, Config{3, 1})
	if got[0] != 0.5 {
		t.Fatalf("midpoint feature %v, want 0.5", got[0])
	}
}

func TestUniformRandomInRange(t *testing.T) {
	params := []Param{{Name: "a", Max: 3}, {Name: "b", Max: 7}}
	r := rng.New(5)
	seenMax := make([]int, len(params))
	for i := 0; i < 500; i++ {
		cfg := UniformRandom(params, r)
		if err := CheckConfig(params, cfg); err != nil {
			t.Fatal(err)
		}
		for j, v := range cfg {
			if v > seenMax[j] {
				seenMax[j] = v
			}
		}
	}
	for j, p := range params {
		if seenMax[j] != p.Max {
			t.Fatalf("dimension %d never reached its Max %d over 500 draws", j, p.Max)
		}
	}
}

func TestHashConfigDisambiguates(t *testing.T) {
	// Same configuration, different space name: distinct noise streams.
	if HashConfig("a", Config{1, 2}) == HashConfig("b", Config{1, 2}) {
		t.Fatal("different spaces share a config key")
	}
	// Different configurations of the same space: distinct keys.
	if HashConfig("a", Config{1, 2}) == HashConfig("a", Config{2, 1}) {
		t.Fatal("permuted configs share a key")
	}
	// Stable across calls.
	if HashConfig("a", Config{3, 4}) != HashConfig("a", Config{3, 4}) {
		t.Fatal("key not stable")
	}
}

func TestSizeOf(t *testing.T) {
	if got := SizeOf([]Param{{Name: "a", Max: 3}, {Name: "b", Max: 7}}); got != 21 {
		t.Fatalf("SizeOf = %v, want 21", got)
	}
}

func TestValidateParams(t *testing.T) {
	if err := ValidateParams([]Param{{Name: "a", Max: 1}}); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]Param{
		"empty":     {},
		"unnamed":   {{Name: "", Max: 2}},
		"duplicate": {{Name: "a", Max: 2}, {Name: "a", Max: 3}},
		"zero max":  {{Name: "a", Max: 0}},
	} {
		if err := ValidateParams(bad); err == nil {
			t.Fatalf("%s params accepted", name)
		}
	}
}

func TestSampleDistinct(t *testing.T) {
	sp := &fake{name: "test/sample"}
	cfgs, err := SampleDistinct(sp, 2, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 || sp.Key(cfgs[0]) == sp.Key(cfgs[1]) {
		t.Fatalf("want 2 distinct configurations, got %v", cfgs)
	}
	// Draw order: the first configuration is the stream's first draw.
	if first := sp.RandomConfig(rng.New(3)); sp.Key(first) != sp.Key(cfgs[0]) {
		t.Fatalf("first sample %v, want the stream's first draw %v", cfgs[0], first)
	}
	if _, err := SampleDistinct(sp, 3, rng.New(3)); !errors.Is(err, ErrTooManyConfigs) {
		t.Fatalf("3 of a 4-config space: error = %v, want ErrTooManyConfigs", err)
	}
}
