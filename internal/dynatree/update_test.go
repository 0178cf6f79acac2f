package dynatree

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"unsafe"

	"alic/internal/rng"
)

// TestUpdateRoundMatchesSerialUpdates pins the round-batched update
// path's bit-identity contract: UpdateRound (one append sweep, one
// table extension, fused pre-update predictions) must consume exactly
// the rng draws and run exactly the float-accumulation chains of the
// per-observation loop — PredictMeanFast then Update per point — for
// both leaf models, over multiple rounds of varying width.
func TestUpdateRoundMatchesSerialUpdates(t *testing.T) {
	for _, model := range []LeafModel{ConstantLeaf, LinearLeaf} {
		t.Run(model.String(), func(t *testing.T) {
			cfg := smallConfig()
			cfg.Particles = 30
			cfg.LeafModel = model
			fa, err := New(cfg, 2, rng.New(41))
			if err != nil {
				t.Fatal(err)
			}
			fb, _ := New(cfg, 2, rng.New(41))
			gen := rng.New(42)
			for round := 0; round < 8; round++ {
				b := 1 + gen.Intn(5)
				xs := make([][]float64, b)
				ys := make([]float64, b)
				for k := range xs {
					xs[k] = []float64{gen.Float64(), gen.Float64()}
					ys[k] = 2*xs[k][0] - xs[k][1] + gen.NormMS(0, 0.1)
				}
				preds := make([]float64, b)
				fa.UpdateRound(xs, ys, preds)
				for k := range xs {
					want := fb.PredictMeanFast(xs[k])
					fb.Update(xs[k], ys[k])
					if preds[k] != want {
						t.Fatalf("round %d obs %d: fused pred %v != pre-update PredictMeanFast %v",
							round, k, preds[k], want)
					}
				}
				probe := []float64{gen.Float64(), gen.Float64()}
				ma, va := fa.Predict(probe)
				mb, vb := fb.Predict(probe)
				if ma != mb || va != vb {
					t.Fatalf("round %d: batched (%v, %v) diverged from serial (%v, %v)",
						round, ma, va, mb, vb)
				}
			}
		})
	}
}

// TestUpdateRoundValidatesBatchWide pins the up-front validation
// contract: a non-finite target anywhere in the batch panics before
// any observation is appended, so the forest is left exactly as it
// was instead of partially updated.
func TestUpdateRoundValidatesBatchWide(t *testing.T) {
	f, err := New(smallConfig(), 1, rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	f.Update([]float64{0.2}, 1)
	n := f.N()
	mBefore, vBefore := f.Predict([]float64{0.4})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic on non-finite mid-batch target")
			}
		}()
		f.UpdateRound([][]float64{{0.1}, {0.5}, {0.9}}, []float64{1, math.Inf(1), 2}, nil)
	}()
	if f.N() != n {
		t.Fatalf("mid-batch panic left %d points appended, want %d", f.N(), n)
	}
	if m, v := f.Predict([]float64{0.4}); m != mBefore || v != vBefore {
		t.Fatal("mid-batch panic changed the model state")
	}
	f.Update([]float64{0.7}, 2) // still usable
}

// TestUpdateWorkerCountInvariance pins the parallel update path at the
// forest level: full training trajectories — periodic predictive
// probes folded into one fingerprint — must be bit-identical at
// workers 1, 4 and 8 for a grow-heavy cloud, a prune-prone cloud and
// a single-particle cloud, in both leaf models.
func TestUpdateWorkerCountInvariance(t *testing.T) {
	shapes := []struct {
		name      string
		mutate    func(*Config)
		dim, obs  int
		noiseSpan float64
	}{
		// High split prior and a permissive leaf floor: trees grow deep.
		{"grow-heavy", func(c *Config) { c.Alpha = 0.99; c.Beta = 0.5; c.MinLeafForSplit = 2; c.Particles = 24 }, 2, 120, 0.05},
		// Low split prior over near-constant data: grown structure keeps
		// getting proposed away, so prune commits are frequent.
		{"prune-prone", func(c *Config) { c.Alpha = 0.4; c.Beta = 3; c.MinLeafForSplit = 2; c.Particles = 24 }, 2, 120, 1.0},
		// Degenerate cloud: resampling and dup-sharing corner cases.
		{"single-particle", func(c *Config) { c.Particles = 1 }, 1, 80, 0.1},
	}
	for _, model := range []LeafModel{ConstantLeaf, LinearLeaf} {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%s/%s", model, sh.name), func(t *testing.T) {
				run := func(workers int) string {
					cfg := smallConfig()
					cfg.LeafModel = model
					sh.mutate(&cfg)
					cfg.Workers = workers
					f, err := New(cfg, sh.dim, rng.New(51))
					if err != nil {
						t.Fatal(err)
					}
					r := rng.New(52)
					x := make([]float64, sh.dim)
					probe := make([]float64, sh.dim)
					fp := ""
					for i := 0; i < sh.obs; i++ {
						for j := range x {
							x[j] = r.Float64()
						}
						y := x[0] + r.NormMS(0, sh.noiseSpan)
						f.Update(x, y)
						if i%10 == 9 {
							for j := range probe {
								probe[j] = 0.3 + 0.05*float64(j)
							}
							m, v := f.Predict(probe)
							fp += fmt.Sprintf("%.17g/%.17g;", m, v)
						}
					}
					return fp
				}
				base := run(1)
				for _, w := range []int{4, 8} {
					if got := run(w); got != base {
						t.Fatalf("workers=%d trajectory diverged from workers=1:\n%s\nvs\n%s", w, got, base)
					}
				}
			})
		}
	}
}

// TestLeafOfBatchMatchesLeafOf pins the partition descent against the
// per-row walk it replaces: for grown trees of several shapes, every
// listed row must land on exactly the leaf leafOf reaches, including
// duplicate rows and blocks small enough to take the row-by-row
// cutoff.
func TestLeafOfBatchMatchesLeafOf(t *testing.T) {
	for _, particles := range []int{1, 6} {
		cfg := smallConfig()
		cfg.Particles = particles
		f, err := New(cfg, 3, rng.New(41))
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(42)
		rows := poolRows(200, 3, 43)
		for i := 0; i < 150; i++ {
			id := r.Intn(len(rows))
			f.Update(rows[id], rows[id][0]-rows[id][2]+r.NormMS(0, 0.1))
		}
		for _, n := range []int{1, 7, 16, 17, 200} {
			idx := make([]int32, n)
			for i := range idx {
				idx[i] = int32(r.Intn(len(rows))) // duplicates welcome
			}
			want := make([]int32, len(rows))
			seen := make([]bool, len(rows))
			for _, root := range f.roots {
				for i := range want {
					seen[i] = false
				}
				for _, row := range idx {
					want[row] = f.leafOf(root, rows[row])
					seen[row] = true
				}
				out := make([]int32, len(rows))
				tmp := make([]int32, n)
				scratch := append([]int32(nil), idx...)
				f.leafOfBatch(root, rows, scratch, tmp, out)
				for row := range out {
					if seen[row] && out[row] != want[row] {
						t.Fatalf("particles=%d n=%d row %d: batch leaf %d != leafOf %d",
							particles, n, row, out[row], want[row])
					}
				}
			}
		}
	}
}

// TestCopyOnWriteSoundness pins the invariants every in-place write
// relies on, after every update. A node referenced more than once
// (root references and child links, dead nodes' links included) is
// marked shared: stay commits that link a memoised copy into a second
// tree must flag it, and so must resample and every path clone. And no
// two distinct live nodes share a point-list backing array: copies
// keep their original's spare capacity, so a stay appends in place,
// which is sound only while the original is gone by the end of the
// observation (see appendFrom). Both leaf models, at one and four
// workers.
func TestCopyOnWriteSoundness(t *testing.T) {
	for _, model := range []LeafModel{ConstantLeaf, LinearLeaf} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", model, workers), func(t *testing.T) {
				cfg := smallConfig()
				cfg.Particles = 80
				cfg.LeafModel = model
				cfg.Workers = workers
				f, err := New(cfg, 2, rng.New(61))
				if err != nil {
					t.Fatal(err)
				}
				gen := rng.New(62)
				for i := 0; i < 150; i++ {
					x := []float64{gen.Float64(), gen.Float64()}
					f.Update(x, 3*x[0]-2*x[1]*x[1]+gen.NormMS(0, 0.05))
					if id := f.ar.unsharedAlias(f.roots); id >= 0 {
						t.Fatalf("update %d: node %d is referenced more than once but not marked shared", i, id)
					}
					if a, b := sharedPointList(f); a >= 0 {
						t.Fatalf("update %d: live nodes %d and %d share a point-list backing array", i, a, b)
					}
				}
			})
		}
	}
}

// sharedPointList returns two distinct live nodes whose point lists
// overlap in memory, capacity included, or (-1, -1) when there are
// none.
func sharedPointList(f *Forest) (a, b int32) {
	var lo liveOrder
	lo.number(&f.ar, f.roots)
	type span struct {
		lo, hi uintptr
		id     int32
	}
	var spans []span
	for _, id := range lo.order {
		p := f.ar.pts[id]
		if cap(p) == 0 {
			continue
		}
		start := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
		spans = append(spans, span{start, start + uintptr(cap(p))*unsafe.Sizeof(p[0]), id})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	reach := 0 // the span reaching furthest so far
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[reach].hi {
			return spans[reach].id, spans[i].id
		}
		if spans[i].hi > spans[reach].hi {
			reach = i
		}
	}
	return -1, -1
}

// TestStayCommitsOncePerSourceNode pins the stay-commit memo: with
// grow moves ruled out every particle stays a single root leaf, so
// after a duplicating resample an update copies each shared root at
// most once, however many slots inherited it. Without the memo every
// duplicate clones its own copy.
func TestStayCommitsOncePerSourceNode(t *testing.T) {
	for _, model := range []LeafModel{ConstantLeaf, LinearLeaf} {
		t.Run(model.String(), func(t *testing.T) {
			cfg := smallConfig()
			cfg.Particles = 64
			cfg.LeafModel = model
			cfg.MinLeafForSplit = 1 << 20 // every move is a stay
			f, err := New(cfg, 2, rng.New(63))
			if err != nil {
				t.Fatal(err)
			}
			gen := rng.New(64)
			obs := func() ([]float64, float64) {
				x := []float64{gen.Float64(), gen.Float64()}
				return x, x[0] + gen.NormMS(0, 0.1)
			}
			f.Update(obs())
			// The arena stays far below the compaction trigger
			// (1024 + 2*64 nodes: at most 64 + 11*64 = 768 nodes after
			// the last update), so every appended node is visible.
			for round := 0; round < 10; round++ {
				// Identical single-leaf particles weigh the same, so skew
				// the weights by hand: the resample keeps the heavy
				// slots several times and drops the light ones.
				for i := range f.logW {
					f.logW[i] = float64(i % 4)
				}
				f.resample()
				distinct := make(map[int32]bool)
				for _, r := range f.roots {
					distinct[r] = true
				}
				if len(distinct) == len(f.roots) {
					t.Fatalf("round %d: the resample duplicated no particle", round)
				}
				before := f.ar.len()
				f.Update(obs())
				appended := f.ar.len() - before
				if appended < 0 {
					t.Fatalf("round %d: the arena compacted; the bound below is unobservable", round)
				}
				if appended > len(distinct) {
					t.Fatalf("round %d: %d nodes appended for %d distinct roots", round, appended, len(distinct))
				}
			}
		})
	}
}
