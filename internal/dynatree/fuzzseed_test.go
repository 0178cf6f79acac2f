package dynatree

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"alic/internal/snapshot/snapshottest"
)

var updateSeeds = flag.Bool("update-seeds", false,
	"rewrite testdata/fuzz/FuzzForestRestore from the seed generators")

// fuzzSeeds returns the payload each committed FuzzForestRestore seed
// must hold, by file name: the hostile payloads, verbatim encodings of
// the seed forests in the layout of earlier builds (forest formats 2
// and 1, which this build still reads), a format-1 payload whose
// bounds blocks are scrambled, and one canonical Snapshot.
func fuzzSeeds(tb testing.TB) map[string][]byte {
	seeds := hostileSnapshots(tb)
	seeds["valid-constant"] = verbatimSnapshot(seedForest(tb, ConstantLeaf))
	seeds["valid-linear"] = verbatimSnapshot(seedForest(tb, LinearLeaf))
	seeds["valid-constant-v1"] = verbatimSnapshotV1(seedForest(tb, ConstantLeaf))
	seeds["valid-linear-v1"] = verbatimSnapshotV1(seedForest(tb, LinearLeaf))
	seeds["scrambled-bounds-v1"] = scrambledSnapshotV1(tb, seedForest(tb, ConstantLeaf))
	seeds["canonical-constant"] = seedForest(tb, ConstantLeaf).Snapshot()
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
