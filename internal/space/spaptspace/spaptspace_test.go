package spaptspace

import (
	"fmt"
	"sync"
	"testing"

	"alic/internal/noise"
	"alic/internal/rng"
	"alic/internal/space"
	"alic/internal/spapt"
)

// TestSuiteRegistered pins that the whole Table 1 suite is selectable
// by its bare kernel names through the registry.
func TestSuiteRegistered(t *testing.T) {
	for _, name := range spapt.Names() {
		sp, err := space.ByName(name)
		if err != nil {
			t.Fatalf("kernel %s not registered: %v", name, err)
		}
		w, ok := sp.(*Space)
		if !ok {
			t.Fatalf("kernel %s registered as %T, want *spaptspace.Space", name, sp)
		}
		if w.Kernel().Name != name {
			t.Fatalf("registered space %s wraps kernel %s", name, w.Kernel().Name)
		}
	}
}

// TestPureDelegation is the pure-refactor proof at the adapter layer:
// every method of the wrapped space returns exactly what the kernel's
// own method returns — same features, same keys, same random-stream
// consumption, same noise model.
func TestPureDelegation(t *testing.T) {
	for _, k := range spapt.Kernels() {
		sp, err := Wrap(k)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Name() != k.Name || sp.Doc() != k.Doc {
			t.Fatalf("%s: name/doc not delegated", k.Name)
		}
		if sp.Dim() != k.Dim() || sp.Size() != k.SpaceSize() {
			t.Fatalf("%s: dim/size not delegated", k.Name)
		}
		if sp.Noise() != k.Noise {
			t.Fatalf("%s: noise model not delegated", k.Name)
		}
		ps := sp.Params()
		for i, p := range k.Params {
			if ps[i].Name != p.Name || ps[i].Max != p.Max {
				t.Fatalf("%s: param %d is %+v, want %s/%d", k.Name, i, ps[i], p.Name, p.Max)
			}
		}

		// Identical rng streams through both paths: the same draws, so
		// the same configurations — the stream-consumption contract the
		// dataset goldens pin.
		ra, rb := rng.New(99), rng.New(99)
		for i := 0; i < 10; i++ {
			a, b := sp.RandomConfig(ra), k.RandomConfig(rb)
			if len(a) != len(b) {
				t.Fatalf("%s: random config dims differ", k.Name)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("%s: random draw %d diverged: %v vs %v", k.Name, i, a, b)
				}
			}
			if sp.Key(a) != k.Key(b) {
				t.Fatalf("%s: keys diverged", k.Name)
			}
			fa, fb := sp.Features(a), k.Features(b)
			for j := range fa {
				if fa[j] != fb[j] {
					t.Fatalf("%s: features diverged at dim %d", k.Name, j)
				}
			}
		}

		base := sp.BaselineConfig()
		want := k.BaselineConfig()
		for j := range base {
			if base[j] != want[j] {
				t.Fatalf("%s: baseline diverged", k.Name)
			}
		}
	}
}

// TestMeasurerBitIdentical pins the measurement path: the adapter's
// measurer must reproduce, bit for bit, the direct sampler composition
// the pre-registry measure/dataset code used — sampler.Sample over the
// kernel's true runtime, features, and key.
func TestMeasurerBitIdentical(t *testing.T) {
	k, err := spapt.ByName("gemver")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Wrap(k)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 23
	meas, err := sp.Measurer(seed)
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := noise.NewSampler(k.Noise, k.Dim(), seed)
	if err != nil {
		t.Fatal(err)
	}

	r := rng.New(7)
	for i := 0; i < 5; i++ {
		cfg := k.RandomConfig(r)
		mu, err := k.TrueRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gotMu, err := meas.TrueMean(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if gotMu != mu {
			t.Fatalf("config %d: TrueMean %v, want kernel's %v", i, gotMu, mu)
		}
		ct, err := k.CompileTime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gotCt, err := meas.CompileCost(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if gotCt != ct {
			t.Fatalf("config %d: CompileCost %v, want kernel's %v", i, gotCt, ct)
		}
		for ord := 0; ord < 8; ord++ {
			want := sampler.Sample(mu, k.Features(cfg), k.Key(cfg), ord)
			got, err := meas.Observe(cfg, ord)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("config %d ord %d: observation %v, want sampler's %v", i, ord, got, want)
			}
		}
	}
	if _, err := meas.Observe(k.BaselineConfig(), -1); err == nil {
		t.Fatal("negative ordinal accepted")
	}
}

// TestMeasurerMemoConcurrent: goroutines sharing one measurer, as
// learners sharing one corpus do, read memoised true means and compile
// costs equal to the kernel's own, whoever computed them first.
func TestMeasurerMemoConcurrent(t *testing.T) {
	k, err := spapt.ByName("gemver")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Wrap(k)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := sp.Measurer(5)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(8)
	cfgs := make([]space.Config, 20)
	for i := range cfgs {
		cfgs[i] = k.RandomConfig(r)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(cfgs))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range cfgs {
				cfg := cfgs[(g+j)%len(cfgs)]
				mu, err := meas.TrueMean(cfg)
				wantMu, _ := k.TrueRuntime(cfg)
				ct, err2 := meas.CompileCost(cfg)
				wantCt, _ := k.CompileTime(cfg)
				if err != nil || err2 != nil || mu != wantMu || ct != wantCt {
					errs <- fmt.Errorf("config %v: true mean %v (%v), compile %v (%v), want %v and %v",
						cfg, mu, err, ct, err2, wantMu, wantCt)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestWrapNil(t *testing.T) {
	if _, err := Wrap(nil); err == nil {
		t.Fatal("nil kernel wrapped")
	}
}

// TestObserveAllocatesNothing pins the per-observation cost: once a
// configuration's true mean is memoised, hashing it, encoding its
// features into the stack buffer and sampling the noise allocate
// nothing, for every kernel of the suite.
func TestObserveAllocatesNothing(t *testing.T) {
	for _, name := range spapt.Names() {
		k, err := spapt.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := Wrap(k)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sp.Measurer(9)
		if err != nil {
			t.Fatal(err)
		}
		cfg := k.RandomConfig(rng.New(3))
		if _, err := m.Observe(cfg, 0); err != nil { // memoises the true mean
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := m.Observe(cfg, 4); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%s (d=%d): Observe allocates %v times per call", k.Name, k.Dim(), allocs)
		}
	}
}
