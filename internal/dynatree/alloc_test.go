package dynatree

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alic/internal/rng"
)

// noallocPins maps every //alic:noalloc-annotated function in the
// module to the test that pins its allocation behaviour dynamically
// with testing.AllocsPerRun. TestNoallocAnnotationsHaveAllocsPins
// keeps the two sets equal, so the static contract (checked by
// cmd/alic-lint) and the dynamic one (checked here) can never name
// different functions.
var noallocPins = map[string]string{
	"PredictMeanFast":    "TestPredictMeanFastZeroAllocs",
	"augInto":            "TestAugIntoZeroAllocs",
	"alcFromMatrices":    "TestIndexedScoringAllocsBounded",
	"proposeSplitRanged": "TestProposeSplitRangedZeroAllocs",
	"descendRecord":      "TestDescendRecordZeroAllocs",
	"leafOfBatch":        "TestLeafOfBatchZeroAllocs",
}

// TestNoallocAnnotationsHaveAllocsPins walks the whole module source
// and asserts that the set of //alic:noalloc annotations equals the
// keys of noallocPins, and that every named pin test exists in this
// package. Annotating a function without pinning it (or the reverse)
// fails here; annotating one outside dynatree requires extending the
// pin table alongside a pin test it can see.
func TestNoallocAnnotationsHaveAllocsPins(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	annotated := make(map[string]string) // func name -> file:line
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Fixture trees under testdata carry annotations for the
			// analyzer's own tests; they are not part of the module.
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.TrimSpace(c.Text) == "//alic:noalloc" {
					annotated[fd.Name.Name] = fset.Position(fd.Pos()).String()
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	testFuncs := make(map[string]bool)
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			if !strings.HasSuffix(name, "_test.go") {
				continue
			}
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					testFuncs[fd.Name.Name] = true
				}
			}
		}
	}
	for name, at := range annotated {
		pin, ok := noallocPins[name]
		if !ok {
			t.Errorf("%s: //alic:noalloc on %s has no AllocsPerRun pin registered in noallocPins", at, name)
			continue
		}
		if !testFuncs[pin] {
			t.Errorf("noallocPins[%q] names %s, which does not exist in package dynatree's tests", name, pin)
		}
	}
	for name := range noallocPins {
		if _, ok := annotated[name]; !ok {
			t.Errorf("noallocPins lists %q but no //alic:noalloc annotation was found in the module", name)
		}
	}
}

// moduleRoot walks up from the package directory to the directory
// holding go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}

// TestAugIntoZeroAllocs pins the augmented-input kernel: writing
// (1, x) into caller-owned scratch must not allocate.
func TestAugIntoZeroAllocs(t *testing.T) {
	x := []float64{0.3, 0.7, 0.1}
	dst := make([]float64, len(x)+1)
	if allocs := testing.AllocsPerRun(100, func() {
		augInto(dst, x)
	}); allocs != 0 {
		t.Fatalf("augInto allocates %v times per call", allocs)
	}
}

// TestProposeSplitRangedZeroAllocs pins the range-fed grow proposal:
// drawing a split from cached bounds must not allocate (it runs once
// per grow-eligible particle per observation).
func TestProposeSplitRangedZeroAllocs(t *testing.T) {
	r := rng.New(11)
	dims := []int32{0, 2}
	lo := []float64{0, 5, 1}
	hi := []float64{1, 5, 3}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok := proposeSplitRanged(dims, lo, hi, r); !ok {
			t.Fatal("split should be possible for a non-degenerate range")
		}
	}); allocs != 0 {
		t.Fatalf("proposeSplitRanged allocates %v times per call", allocs)
	}
}

// TestDescendRecordZeroAllocs pins the fused-descent recorder: once a
// slot's chain scratch has seen its tree's depth, recording a
// root→leaf descent must not allocate (it runs once per particle per
// observation inside the weight pass).
func TestDescendRecordZeroAllocs(t *testing.T) {
	cfg := smallConfig()
	cfg.Particles = 8
	f, err := New(cfg, 2, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(22)
	for i := 0; i < 60; i++ {
		x := []float64{r.Float64(), r.Float64()}
		f.Update(x, x[0]+x[1]+r.NormMS(0, 0.05))
	}
	x := []float64{0.4, 0.6}
	for i := range f.roots {
		f.descendRecord(i, x) // warm: sizes each slot's chain scratch
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for i := range f.roots {
			f.descendRecord(i, x)
		}
	}); allocs != 0 {
		t.Fatalf("descendRecord allocates %v times per sweep", allocs)
	}
}

// TestLeafOfBatchZeroAllocs pins the partition descent: routing a
// block of rows through a grown tree with caller-provided scratch must
// not allocate (it runs once per scoring slot per ALCScores call).
func TestLeafOfBatchZeroAllocs(t *testing.T) {
	cfg := smallConfig()
	cfg.Particles = 4
	f, err := New(cfg, 2, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(32)
	rows := poolRows(80, 2, 33)
	for i := 0; i < 60; i++ {
		id := r.Intn(len(rows))
		f.Update(rows[id], rows[id][0]+rows[id][1]+r.NormMS(0, 0.05))
	}
	idx := make([]int32, len(rows))
	tmp := make([]int32, len(rows))
	out := make([]int32, len(rows))
	root := f.roots[0]
	if allocs := testing.AllocsPerRun(100, func() {
		for i := range idx {
			idx[i] = int32(i)
		}
		f.leafOfBatch(root, rows, idx, tmp, out)
	}); allocs != 0 {
		t.Fatalf("leafOfBatch allocates %v times per block", allocs)
	}
}
