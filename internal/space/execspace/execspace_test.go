package execspace

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"alic/internal/space"
)

// TestRegisteredButGated pins the hermetic-safety contract: the space
// is always registered and describable, but opening a measurer without
// the toolchain environment fails with ErrNotConfigured — nothing
// executes.
func TestRegisteredButGated(t *testing.T) {
	t.Setenv("ALIC_EXEC_CC", "")
	t.Setenv("ALIC_EXEC_SRC", "")
	sp, err := space.ByName("exec/cc")
	if err != nil {
		t.Fatalf("exec/cc not registered: %v", err)
	}
	if !space.IsLive(sp) {
		t.Fatal("exec/cc not marked live")
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Measurer(1); !errors.Is(err, ErrNotConfigured) {
		t.Fatalf("unconfigured measurer: err = %v, want ErrNotConfigured", err)
	}
	// Missing source file: configured-looking but still refused before
	// anything runs.
	t.Setenv("ALIC_EXEC_CC", "cc")
	t.Setenv("ALIC_EXEC_SRC", filepath.Join(t.TempDir(), "definitely-missing.c"))
	if _, err := sp.Measurer(1); err == nil {
		t.Fatal("missing source accepted")
	}
}

// TestFlags pins the configuration -> flag encoding.
func TestFlags(t *testing.T) {
	sp := New()
	flags, err := sp.Flags(space.Config{1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(flags) != 1 || flags[0] != "-O0" {
		t.Fatalf("baseline flags %v, want [-O0]", flags)
	}
	flags, err = sp.Flags(space.Config{4, 2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"-O3", "-funroll-loops", "-ftree-vectorize", "-ffast-math", "-fomit-frame-pointer"}
	if len(flags) != len(want) {
		t.Fatalf("full flags %v, want %v", flags, want)
	}
	for i := range want {
		if flags[i] != want[i] {
			t.Fatalf("full flags %v, want %v", flags, want)
		}
	}
	if _, err := sp.Flags(space.Config{5, 1, 1, 1, 1}); err == nil {
		t.Fatal("out-of-range opt level accepted")
	}
}

// TestFakeToolchainEndToEnd drives the full compile-once/observe path
// against a stub "compiler" — a shell script that writes a trivially
// runnable binary — so the process plumbing is covered without any
// real toolchain.
func TestFakeToolchainEndToEnd(t *testing.T) {
	dir := t.TempDir()
	cc := filepath.Join(dir, "fake-cc")
	// The stub scans for -o and emits an executable script there; the
	// marker file proves each configuration compiles at most once.
	script := `#!/bin/sh
out=""
prev=""
for a in "$@"; do
  if [ "$prev" = "-o" ]; then out="$a"; fi
  prev="$a"
done
[ -n "$out" ] || exit 1
echo run >> "$out.compiled"
printf '#!/bin/sh\nexit 0\n' > "$out"
chmod +x "$out"
`
	if err := os.WriteFile(cc, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, "prog.c")
	if err := os.WriteFile(src, []byte("int main(void){return 0;}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv("ALIC_EXEC_CC", cc)
	t.Setenv("ALIC_EXEC_SRC", src)
	t.Setenv("ALIC_EXEC_TIMEOUT", "20s")

	sp := New()
	meas, err := sp.Measurer(1)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := meas.(interface{ Close() error }); ok {
		defer c.Close()
	}

	cfg := space.Config{3, 2, 1, 1, 2}
	if _, err := meas.TrueMean(cfg); !errors.Is(err, ErrNoGroundTruth) {
		t.Fatalf("TrueMean on a live space: err = %v, want ErrNoGroundTruth", err)
	}
	ct, err := meas.CompileCost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ct <= 0 {
		t.Fatalf("compile cost %v, want > 0", ct)
	}
	for ord := 0; ord < 3; ord++ {
		y, err := meas.Observe(cfg, ord)
		if err != nil {
			t.Fatal(err)
		}
		if y <= 0 {
			t.Fatalf("observation %v, want > 0", y)
		}
	}
	if _, err := meas.Observe(cfg, -1); err == nil {
		t.Fatal("negative ordinal accepted")
	}

	// The memoisation contract: three observations, one compile.
	m := meas.(*measurer)
	bin := filepath.Join(m.dir, binName(m.sp.Key(cfg)))
	data, err := os.ReadFile(bin + ".compiled")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "run\n" {
		t.Fatalf("compiler ran %d times for one config", len(data)/len("run\n"))
	}

	// A failing compile surfaces as an error, not a panic, and keeps
	// failing consistently from the memoised result.
	t.Setenv("ALIC_EXEC_CC", filepath.Join(dir, "missing-cc"))
	bad, err := sp.Measurer(1)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := bad.(interface{ Close() error }); ok {
		defer c.Close()
	}
	if _, err := bad.Observe(cfg, 0); err == nil {
		t.Fatal("missing compiler succeeded")
	}
	if _, err := bad.CompileCost(cfg); err == nil {
		t.Fatal("missing compiler reported a compile cost")
	}
}

// TestNonPositiveTimeoutRejected: a zero or negative ALIC_EXEC_TIMEOUT
// would time out every compile and run at once, so opening a measurer
// refuses it before anything runs.
func TestNonPositiveTimeoutRejected(t *testing.T) {
	src := filepath.Join(t.TempDir(), "k.c")
	if err := os.WriteFile(src, []byte("int main(void){return 0;}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv("ALIC_EXEC_CC", "cc")
	t.Setenv("ALIC_EXEC_SRC", src)
	for _, v := range []string{"0s", "0", "-1s", "-0.5ms"} {
		t.Setenv("ALIC_EXEC_TIMEOUT", v)
		if m, err := New().Measurer(1); err == nil {
			if c, ok := m.(interface{ Close() error }); ok {
				c.Close()
			}
			t.Fatalf("ALIC_EXEC_TIMEOUT=%q accepted", v)
		}
	}
}

// FuzzExecSpaceInputs covers the space's two untrusted inputs: the
// ALIC_EXEC_TIMEOUT string and the configuration the flag encoding
// reads. A timeout parses to the default when empty and otherwise to
// exactly its positive Go duration, or fails; a configuration encodes
// iff it is in range, and its flags decode back to it. The seed corpus
// is in testdata/fuzz/FuzzExecSpaceInputs.
func FuzzExecSpaceInputs(f *testing.F) {
	sp := New()
	f.Fuzz(func(t *testing.T, timeout string, opt, unroll, vectorize, fastmath, omitfp int) {
		d, err := parseTimeout(timeout)
		switch want, perr := time.ParseDuration(timeout); {
		case timeout == "":
			if err != nil || d != defaultTimeout {
				t.Fatalf("empty timeout: (%v, %v), want the default %v", d, err, defaultTimeout)
			}
		case perr != nil || want <= 0:
			if err == nil {
				t.Fatalf("timeout %q accepted as %v", timeout, d)
			}
		case err != nil || d != want:
			t.Fatalf("timeout %q: (%v, %v), want %v", timeout, d, err, want)
		}

		cfg := space.Config{opt, unroll, vectorize, fastmath, omitfp}
		flags, err := sp.Flags(cfg)
		if (err == nil) != (sp.Check(cfg) == nil) {
			t.Fatalf("Flags(%v) err %v disagrees with Check", cfg, err)
		}
		if err != nil {
			return
		}
		got := space.Config{0, 1, 1, 1, 1}
		for i, o := range optFlags {
			if flags[0] == o {
				got[0] = i + 1
			}
		}
		for _, fl := range flags[1:] {
			found := false
			for i, b := range binFlags {
				if fl == b.flag && got[i+1] == 1 {
					got[i+1], found = 2, true
				}
			}
			if !found {
				t.Fatalf("Flags(%v) = %v: unknown or repeated flag %q", cfg, flags, fl)
			}
		}
		if !slices.Equal(got, cfg) {
			t.Fatalf("Flags(%v) = %v decodes to %v", cfg, flags, got)
		}
	})
}
