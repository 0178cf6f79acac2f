package dynatree

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"alic/internal/rng"
	"alic/internal/snapshot/snapshottest"
)

var updateSeeds = flag.Bool("update-seeds", false,
	"rewrite testdata/fuzz/FuzzForestRestore from the seed generators")

// fuzzSeeds returns the payload each committed FuzzForestRestore seed
// must hold, by file name: the hostile payloads, verbatim encodings of
// the seed forests in the layout of earlier builds (forest formats 2
// and 1, which this build still reads), a format-1 payload whose
// bounds blocks are scrambled, and one canonical Snapshot in format 2
// and in the current format 3.
func fuzzSeeds(tb testing.TB) map[string][]byte {
	seeds := hostileSnapshots(tb)
	seeds["valid-constant"] = asFormat2(verbatimSnapshot(seedForest(tb, ConstantLeaf)))
	seeds["valid-linear"] = asFormat2(verbatimSnapshot(seedForest(tb, LinearLeaf)))
	seeds["valid-constant-v1"] = verbatimSnapshotV1(seedForest(tb, ConstantLeaf))
	seeds["valid-linear-v1"] = verbatimSnapshotV1(seedForest(tb, LinearLeaf))
	seeds["scrambled-bounds-v1"] = scrambledSnapshotV1(tb, seedForest(tb, ConstantLeaf))
	seeds["canonical-constant"] = asFormat2(seedForest(tb, ConstantLeaf).Snapshot())
	seeds["canonical-constant-v3"] = seedForest(tb, ConstantLeaf).Snapshot()
	return seeds
}

// TestFuzzForestRestoreSeeds: every committed seed equals what its
// generator produces today, so the corpus pins the payloads the
// rejection tests check. Run with -update-seeds to rewrite the corpus
// after a change to forest updates or to the generators.
func TestFuzzForestRestoreSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzForestRestore")
	seeds := fuzzSeeds(t)
	if *updateSeeds {
		for name, payload := range seeds {
			if err := os.WriteFile(filepath.Join(dir, name), snapshottest.CorpusFile(payload), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(seeds) {
		t.Fatalf("%d committed seeds, %d generated", len(entries), len(seeds))
	}
	for _, e := range entries {
		want, ok := seeds[e.Name()]
		if !ok {
			t.Errorf("seed %s has no generator", e.Name())
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := snapshottest.CorpusPayload(raw)
		if err != nil {
			t.Fatalf("seed %s: %v", e.Name(), err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("seed %s differs from its generator (rerun with -update-seeds)", e.Name())
		}
	}
}

// TestSnapshotRestoresOlderFormats pins the readers of formats 1 and
// 2, which carried a scoring worker count: each committed valid seed
// in those formats, written by an earlier build, restores to the
// forest the current payload of its seed forest restores to, and the
// two stay bit-identical in snapshot bytes and predictions over the
// updates that follow.
func TestSnapshotRestoresOlderFormats(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzForestRestore")
	for name, leaf := range map[string]LeafModel{
		"valid-constant":     ConstantLeaf,
		"valid-linear":       LinearLeaf,
		"valid-constant-v1":  ConstantLeaf,
		"valid-linear-v1":    LinearLeaf,
		"canonical-constant": ConstantLeaf,
	} {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			payload, err := snapshottest.CorpusPayload(raw)
			if err != nil {
				t.Fatal(err)
			}
			old, err := Restore(payload)
			if err != nil {
				t.Fatal(err)
			}
			cur, err := Restore(verbatimSnapshot(seedForest(t, leaf)))
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(73)
			probe := []float64{0.3, 0.6}
			for k := 0; k < 30; k++ {
				if !bytes.Equal(old.Snapshot(), cur.Snapshot()) {
					t.Fatalf("after %d updates the snapshots differ", k)
				}
				om, ov := old.Predict(probe)
				cm, cv := cur.Predict(probe)
				if om != cm || ov != cv {
					t.Fatalf("after %d updates: predict (%v,%v) != (%v,%v)", k, om, ov, cm, cv)
				}
				x := []float64{r.Float64(), r.Float64()}
				y := 4*x[0] - x[1] + r.NormMS(0, 0.05)
				old.Update(x, y)
				cur.Update(x, y)
			}
		})
	}
}
