package dynatree

import (
	"fmt"
	"math"
	"reflect"
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

// trajectoryShapes are the update-trajectory workloads pinned by
// TestUpdateTrajectoryGolden.
var trajectoryShapes = []struct {
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

// updateTrajectory trains a forest of the given shape and returns its
// periodic predictive probes, one "mean/variance" entry every ten
// updates, at full float precision.
func updateTrajectory(t *testing.T, model LeafModel, mutate func(*Config), dim, obs int, noiseSpan float64) []string {
	cfg := smallConfig()
	cfg.LeafModel = model
	mutate(&cfg)
	f, err := New(cfg, dim, rng.New(51))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(52)
	x := make([]float64, dim)
	probe := make([]float64, dim)
	var fp []string
	for i := 0; i < obs; i++ {
		for j := range x {
			x[j] = r.Float64()
		}
		y := x[0] + r.NormMS(0, noiseSpan)
		f.Update(x, y)
		if i%10 == 9 {
			for j := range probe {
				probe[j] = 0.3 + 0.05*float64(j)
			}
			m, v := f.Predict(probe)
			fp = append(fp, fmt.Sprintf("%.17g/%.17g", m, v))
		}
	}
	return fp
}

// updateTrajectoryGolden holds the probes updateTrajectory returned
// for each leaf model and shape, recorded at one worker before the
// forest became serial.
var updateTrajectoryGolden = map[string][]string{
	"constant/grow-heavy": {
		"0.48164410076088643/0.61651166150706027",
		"0.50979132782093661/0.34163846029777556",
		"0.39253708316377395/0.30349256703316152",
		"0.26012013530596484/0.2267756516381291",
		"0.19284546914988154/0.1770637147897591",
		"0.20828086032820256/0.13843368624838295",
		"0.20773133808358937/0.13024293371645213",
		"0.1859772370576441/0.13109375222873632",
		"0.18640261122474952/0.11619827442800817",
		"0.19427183898713588/0.10618329822696149",
		"0.21060093174552511/0.097901924321846731",
		"0.22492847294628626/0.089814721422410648",
	},
	"constant/prune-prone": {
		"0.58434529750458275/0.63691418626896867",
		"0.34910306671736541/0.55320627914865683",
		"0.29903967773292472/0.71992742129676768",
		"0.29994107454303559/0.81755020880575213",
		"0.30862077521297315/0.84868122182033978",
		"0.30970696890395094/0.76308538359871192",
		"0.2739480984478691/0.80958274188356316",
		"0.27657436521046819/0.83166635846083736",
		"0.2909215893988088/0.99226030396958664",
		"0.35698899018392094/0.89801113405711352",
		"0.46883112645382291/0.74597259866456112",
		"0.38484858005593892/0.8564438652277464",
	},
	"constant/single-particle": {
		"0.46147522377257977/0.36008402786936666",
		"0.39994483323029184/0.24948689272205699",
		"0.34395321216011354/0.18590344756213101",
		"0.29045493224162133/0.17546825548206776",
		"0.20624337753166427/0.18272820851151769",
		"0.20271034088879916/0.14630315070414568",
		"0.1970887301599617/0.12352184227712346",
		"0.19243539222449751/0.11321578196686993",
	},
	"linear/grow-heavy": {
		"0.35350707556696664/0.50251951792283789",
		"0.31110245831627586/0.19658911410219249",
		"0.29899113474497802/0.13059397403452419",
		"0.29181729725826328/0.0995206745702234",
		"0.29718510434749512/0.080663337258133919",
		"0.29549679749263408/0.067513509117390652",
		"0.2928467308622637/0.058502050590673038",
		"0.295461385874139/0.051757927332606951",
		"0.29848508666953694/0.04642093547300459",
		"0.2990691840866449/0.041965686952531528",
		"0.29975674716451595/0.038312764675768135",
		"0.30068901417144056/0.03557165632252754",
	},
	"linear/prune-prone": {
		"0.44434191590872474/0.74359988966830015",
		"0.16652617888713847/0.55180319737861083",
		"0.058245332771767751/0.64950885138610115",
		"0.01339557870855617/0.72983857939941621",
		"0.16323307023136283/0.80583806155847171",
		"0.15993955325688267/0.71686949190875759",
		"0.12985194196751473/0.76080640263317012",
		"0.16891286706293226/0.81964828991578453",
		"0.22747583460983922/0.85808892307750273",
		"0.24627537755989817/0.80938744522742501",
		"0.30647784044295007/0.74828775462030139",
		"0.30218147048886845/0.71252325091410962",
	},
	"linear/single-particle": {
		"0.33269128679508131/0.3549243597527309",
		"0.31496070416874494/0.19663134378852565",
		"0.30364428324967707/0.13725331888295694",
		"0.29665257724805927/0.10345748778873971",
		"0.29575738838122018/0.084776878929046479",
		"0.29069178376527849/0.072395552302429875",
		"0.28383333251111359/0.063803115755915879",
		"0.28490902289690512/0.058221906107823768",
	},
}

// TestUpdateTrajectoryGolden pins full training trajectories of a
// grow-heavy cloud, a prune-prone cloud and a single-particle cloud,
// in both leaf models, against fingerprints recorded from the sharded
// update path at one worker before the serial forest replaced it.
func TestUpdateTrajectoryGolden(t *testing.T) {
	for _, model := range []LeafModel{ConstantLeaf, LinearLeaf} {
		for _, sh := range trajectoryShapes {
			name := fmt.Sprintf("%s/%s", model, sh.name)
			t.Run(name, func(t *testing.T) {
				want, ok := updateTrajectoryGolden[name]
				if !ok {
					t.Fatalf("no golden for %s", name)
				}
				got := updateTrajectory(t, model, sh.mutate, sh.dim, sh.obs, sh.noiseSpan)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trajectory diverged from the golden:\ngot  %q\nwant %q", got, want)
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
// observation (see appendFrom). Both leaf models.
func TestCopyOnWriteSoundness(t *testing.T) {
	for _, model := range []LeafModel{ConstantLeaf, LinearLeaf} {
		t.Run(model.String(), func(t *testing.T) {
			cfg := smallConfig()
			cfg.Particles = 80
			cfg.LeafModel = model
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
