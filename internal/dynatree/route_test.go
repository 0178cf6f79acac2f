package dynatree

import (
	"math"
	"testing"

	"alic/internal/rng"
)

// poolRows builds a deterministic pool of feature rows.
func poolRows(n, dim int, seed uint64) [][]float64 {
	r := rng.New(seed)
	rows := make([][]float64, n)
	for i := range rows {
		x := make([]float64, dim)
		for j := range x {
			x[j] = r.Float64()
		}
		rows[i] = x
	}
	return rows
}

func allIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// TestScoringParticlesStride pins the strided scoring subsample:
// fewer, equal and more requested particles than the cloud holds,
// plus the k=1 edge.
func TestScoringParticlesStride(t *testing.T) {
	build := func(particles, score int) *Forest {
		cfg := smallConfig()
		cfg.Particles = particles
		cfg.ScoreParticles = score
		f, err := New(cfg, 1, rng.New(31))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	cases := []struct {
		particles, score, wantLen int
	}{
		{60, 10, 10}, // subsample
		{60, 60, 60}, // equal: every slot
		{60, 90, 60}, // more than the cloud: every slot
		{60, 0, 60},  // zero: every slot
		{60, 1, 1},   // single-particle edge
	}
	for _, c := range cases {
		f := build(c.particles, c.score)
		slots := f.scoringParticles()
		if len(slots) != c.wantLen {
			t.Fatalf("particles=%d score=%d: %d scoring slots, want %d",
				c.particles, c.score, len(slots), c.wantLen)
		}
		// The subsample must match the stride formula exactly (the
		// scoring goldens depend on which slots are folded).
		if c.score > 0 && c.score < c.particles {
			stride := float64(c.particles) / float64(c.score)
			for i, slot := range slots {
				if want := int32(int(float64(i) * stride)); slot != want {
					t.Fatalf("slot[%d] = %d, want %d", i, slot, want)
				}
			}
		}
		// Scoring through the subsample stays usable.
		r := rng.New(32)
		for i := 0; i < 60; i++ {
			x := r.Float64()
			f.Update([]float64{x}, x+r.NormMS(0, 0.1))
		}
		if v := f.ALM([]float64{0.5}); v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("particles=%d score=%d: ALM = %v", c.particles, c.score, v)
		}
	}
}

// TestIndexedMatchesRowScoringAfterEveryUpdate is the PoolBinder
// contract: after any Update — resampling, copy-on-write path clones,
// prunes, in-place grows, compaction — indexed scores must equal
// row-based scores for the whole pool, bit for bit.
func TestIndexedMatchesRowScoringAfterEveryUpdate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		leaf  LeafModel
		score int
	}{
		{"constant/subsample", ConstantLeaf, 13},
		{"constant/all", ConstantLeaf, 0},
		{"linear/subsample", LinearLeaf, 13},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.Particles = 40
			cfg.ScoreParticles = tc.score
			cfg.LeafModel = tc.leaf
			f, err := New(cfg, 2, rng.New(33))
			if err != nil {
				t.Fatal(err)
			}
			rows := poolRows(60, 2, 34)
			ids := allIDs(len(rows))
			f.BindPool(rows)
			r := rng.New(35)
			steps := 120
			if tc.leaf == LinearLeaf {
				steps = 60 // linear ALC is O(K x cands x refs-in-leaf) solves
			}
			for step := 0; step < steps; step++ {
				// Train on pool rows, as an acquisition loop does.
				id := r.Intn(len(rows))
				x := rows[id]
				f.Update(x, x[0]+2*x[1]*x[1]+r.NormMS(0, 0.1))

				alm := f.ALMBatch(rows)
				almIdx := f.ALMIndexed(ids)
				for i := range alm {
					if alm[i] != almIdx[i] {
						t.Fatalf("step %d: ALM[%d] row %v != indexed %v", step, i, alm[i], almIdx[i])
					}
				}
				pmf := f.PredictMeanFastBatch(rows)
				pmfIdx := f.PredictMeanFastIndexed(ids)
				for i := range pmf {
					if pmf[i] != pmfIdx[i] {
						t.Fatalf("step %d: PredictMeanFast[%d] row %v != indexed %v", step, i, pmf[i], pmfIdx[i])
					}
				}
				if step%5 != 0 {
					continue // full-pool ALC every few updates keeps the test fast
				}
				alc := f.ALCScores(rows, rows)
				alcIdx := f.ALCIndexed(ids, ids)
				for i := range alc {
					if alc[i] != alcIdx[i] {
						t.Fatalf("step %d: ALC[%d] row %v != indexed %v", step, i, alc[i], alcIdx[i])
					}
				}
			}
		})
	}
}

// TestIndexedDisjointCandsRefs covers the cands != refs indexed path.
func TestIndexedDisjointCandsRefs(t *testing.T) {
	cfg := smallConfig()
	cfg.Particles = 30
	cfg.ScoreParticles = 10
	f, _ := New(cfg, 2, rng.New(36))
	rows := poolRows(50, 2, 37)
	f.BindPool(rows)
	r := rng.New(38)
	for i := 0; i < 80; i++ {
		id := r.Intn(len(rows))
		f.Update(rows[id], rows[id][0]+rows[id][1]+r.NormMS(0, 0.05))
	}
	cands, refs := allIDs(20), allIDs(50)[20:]
	got := f.ALCIndexed(cands, refs)
	want := f.ALCScores(rows[:20], rows[20:])
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ALC[%d]: indexed %v != row %v", i, got[i], want[i])
		}
	}
}

// TestIndexedRequiresBoundPool pins the BindPool contract.
func TestIndexedRequiresBoundPool(t *testing.T) {
	f, _ := New(smallConfig(), 1, rng.New(39))
	f.Update([]float64{0.5}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("indexed scoring without BindPool did not panic")
		}
	}()
	f.ALMIndexed([]int{0})
}

// TestRebindResetsCache: after rebinding a different pool, ids address
// the new rows.
func TestRebindResetsCache(t *testing.T) {
	cfg := smallConfig()
	cfg.Particles = 20
	f, _ := New(cfg, 1, rng.New(40))
	rowsA := poolRows(30, 1, 41)
	rowsB := poolRows(30, 1, 42)
	f.BindPool(rowsA)
	r := rng.New(43)
	for i := 0; i < 50; i++ {
		x := r.Float64()
		f.Update([]float64{x}, 3*x+r.NormMS(0, 0.1))
	}
	f.ALMIndexed(allIDs(30)) // score against rowsA first
	f.BindPool(rowsB)
	got := f.ALMIndexed(allIDs(30))
	want := f.ALMBatch(rowsB)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("after rebind, ALM[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestPredictMeanFastZeroAllocs pins the zero-allocation contract of
// the steady-state prediction hot path for both leaf models.
func TestPredictMeanFastZeroAllocs(t *testing.T) {
	for _, lm := range []LeafModel{ConstantLeaf, LinearLeaf} {
		t.Run(lm.String(), func(t *testing.T) {
			cfg := smallConfig()
			cfg.Particles = 30
			cfg.ScoreParticles = 10
			cfg.LeafModel = lm
			f, _ := New(cfg, 2, rng.New(44))
			r := rng.New(45)
			for i := 0; i < 80; i++ {
				x := []float64{r.Float64(), r.Float64()}
				f.Update(x, x[0]-x[1]+r.NormMS(0, 0.05))
			}
			probe := []float64{0.4, 0.6}
			f.PredictMeanFast(probe) // warm lazy caches
			if allocs := testing.AllocsPerRun(50, func() {
				f.PredictMeanFast(probe)
			}); allocs != 0 {
				t.Fatalf("steady-state PredictMeanFast allocates %v times per call", allocs)
			}
		})
	}
}

// TestIndexedScoringAllocsBounded pins the O(1)-allocations-per-round
// contract of the indexed scoring kernels (the bound covers the result
// slice plus a fixed number of scratch headers, regardless of pool or
// particle count).
func TestIndexedScoringAllocsBounded(t *testing.T) {
	cfg := smallConfig()
	cfg.Particles = 40
	cfg.ScoreParticles = 10
	f, _ := New(cfg, 2, rng.New(46))
	rows := poolRows(80, 2, 47)
	ids := allIDs(len(rows))
	f.BindPool(rows)
	r := rng.New(48)
	for i := 0; i < 100; i++ {
		id := r.Intn(len(rows))
		f.Update(rows[id], rows[id][0]+rows[id][1]+r.NormMS(0, 0.05))
	}
	f.ALMIndexed(ids)
	f.ALCIndexed(ids, ids) // size every scratch buffer
	const maxAllocs = 4
	if allocs := testing.AllocsPerRun(20, func() { f.ALMIndexed(ids) }); allocs > maxAllocs {
		t.Fatalf("steady-state ALMIndexed allocates %v times per round, want <= %d", allocs, maxAllocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { f.ALCIndexed(ids, ids) }); allocs > maxAllocs {
		t.Fatalf("steady-state ALCIndexed allocates %v times per round, want <= %d", allocs, maxAllocs)
	}
}

// TestALCScratchGrowsGeometrically pins the scoring scratch against a
// candidate set that grows every round, as revisits grow it in a
// learning session: the leaf matrices and descent buffers must grow
// geometrically, so a round that outgrows them reallocates only now
// and then instead of every time.
func TestALCScratchGrowsGeometrically(t *testing.T) {
	cfg := smallConfig()
	cfg.Particles = 40
	cfg.ScoreParticles = 10
	f, _ := New(cfg, 2, rng.New(56))
	rows := poolRows(400, 2, 57)
	r := rng.New(58)
	for i := 0; i < 100; i++ {
		id := r.Intn(len(rows))
		f.Update(rows[id], rows[id][0]+rows[id][1]+r.NormMS(0, 0.05))
	}
	refs := rows[:50]
	n := 100
	steady := testing.AllocsPerRun(20, func() { f.ALCScores(rows[:n], refs) })
	growing := testing.AllocsPerRun(100, func() {
		n++
		f.ALCScores(rows[:n], refs)
	})
	if growing > steady+0.2 {
		t.Fatalf("ALCScores allocates %v times per round over a growing candidate set, %v at a fixed one", growing, steady)
	}
}

// TestALCScoresRoutesEachRootOnce pins the shared-root descent of
// ALCScores: scoring slots that hold the same tree descend once, and
// every row of the leaf matrices still equals leafOf for its own slot,
// with candidates shared with the references and separate from them.
func TestALCScoresRoutesEachRootOnce(t *testing.T) {
	cfg := smallConfig()
	cfg.Particles = 40
	cfg.ScoreParticles = 20
	f, err := New(cfg, 2, rng.New(71))
	if err != nil {
		t.Fatal(err)
	}
	refs := poolRows(50, 2, 72)
	r := rng.New(74)
	for i := 0; i < 80; i++ {
		x := refs[r.Intn(len(refs))]
		f.Update(x, x[0]-x[1]+r.NormMS(0, 0.1))
	}
	for _, cands := range [][][]float64{refs, poolRows(30, 2, 73)} {
		f.ALCScores(cands, refs)
		K := len(f.scoreSlots)
		if len(f.sc.routeUniq) == K {
			t.Fatal("no two scoring slots share a root; the repeat path is not exercised")
		}
		candLeaf := f.sc.refLeaf
		if !sameSlice(cands, refs) {
			candLeaf = f.sc.candLeaf
		}
		for k, slot := range f.scoreSlots {
			root := f.roots[slot]
			for j, x := range refs {
				if got, want := f.sc.refLeaf[k*len(refs)+j], f.leafOf(root, x); got != want {
					t.Fatalf("slot %d ref %d: leaf %d, want %d", k, j, got, want)
				}
			}
			for i, x := range cands {
				if got, want := candLeaf[k*len(cands)+i], f.leafOf(root, x); got != want {
					t.Fatalf("slot %d cand %d: leaf %d, want %d", k, i, got, want)
				}
			}
		}
	}
}
