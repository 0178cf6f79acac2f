package dynatree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"alic/internal/rng"
	"alic/internal/snapshot"
)

// trainForest builds a forest with some absorbed observations for the
// round-trip tests.
func snapTrainForest(t testing.TB, leaf LeafModel, n int) (*Forest, [][]float64, []float64) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Particles = 60
	cfg.ScoreParticles = 20
	cfg.LeafModel = leaf
	const dim = 3
	f, err := New(cfg, dim, rng.NewStream(11, 0x5eed))
	if err != nil {
		t.Fatal(err)
	}
	gen := rng.NewStream(7, 0xfeed)
	var xs [][]float64
	var ys []float64
	for i := 0; i < n+40; i++ {
		x := []float64{gen.Float64(), gen.Float64() * 4, gen.Float64() * 10}
		y := x[0]*3 - x[1] + gen.Norm()*0.1
		xs = append(xs, x)
		ys = append(ys, y)
	}
	for i := 0; i < n; i++ {
		f.Update(xs[i], ys[i])
	}
	return f, xs[n:], ys[n:]
}

// TestSnapshotRoundTripBitIdentical pins the determinism contract at
// the forest layer: continue training and scoring the original and
// the restored forest in lockstep and require bit-identical
// predictions, draws, and structure the whole way.
func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	for _, leaf := range []LeafModel{ConstantLeaf, LinearLeaf} {
		t.Run(leaf.String(), func(t *testing.T) {
			f, xs, ys := snapTrainForest(t, leaf, 60)
			g, err := Restore(f.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			probe := []float64{0.4, 1.1, 5.5}
			for k := range xs {
				fm, fv := f.Predict(probe)
				gm, gv := g.Predict(probe)
				if fm != gm || fv != gv {
					t.Fatalf("step %d: predict diverged: (%v,%v) != (%v,%v)", k, fm, fv, gm, gv)
				}
				f.Update(xs[k], ys[k])
				g.Update(xs[k], ys[k])
			}
			fs, gs := f.Stats(), g.Stats()
			if fs != gs {
				t.Fatalf("stats diverged: %+v != %+v", fs, gs)
			}
			// Canonical bytes cover the live trees, points and rng
			// position, whatever each arena's compaction history.
			if !bytes.Equal(f.Snapshot(), g.Snapshot()) {
				t.Fatal("snapshots diverged after the lockstep")
			}
		})
	}
}

// liveNodes counts the distinct nodes reachable from roots.
func liveNodes(ar *nodes, roots []int32) int {
	seen := make([]bool, ar.len())
	n := 0
	stack := append([]int32(nil), roots...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		n++
		if ar.left[id] >= 0 {
			stack = append(stack, ar.left[id], ar.right[id])
		}
	}
	return n
}

// TestSnapshotRestoresLiveArena pins what a checkpoint carries: the
// restored arena holds exactly the source's live nodes, fewer than the
// source arena once superseded path copies exist, and its lastLive is
// that count.
func TestSnapshotRestoresLiveArena(t *testing.T) {
	for _, leaf := range []LeafModel{ConstantLeaf, LinearLeaf} {
		t.Run(leaf.String(), func(t *testing.T) {
			f, _, _ := snapTrainForest(t, leaf, 60)
			live := liveNodes(&f.ar, f.roots)
			if live >= f.ar.len() {
				t.Fatalf("arena of %d nodes has no dead nodes (%d live); the test needs some", f.ar.len(), live)
			}
			g, err := Restore(f.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if g.ar.len() != live || g.lastLive != live {
				t.Fatalf("restored arena %d nodes, lastLive %d; want the %d live nodes", g.ar.len(), g.lastLive, live)
			}
			// Shared flags are exact: set on every node with more than
			// one root reference or child link, and on no other.
			refs := make([]int, g.ar.len())
			for _, r := range g.roots {
				refs[r]++
			}
			for id, l := range g.ar.left {
				if l >= 0 {
					refs[l]++
					refs[g.ar.right[id]]++
				}
			}
			for id, s := range g.ar.shared {
				if s != (refs[id] > 1) {
					t.Fatalf("restored node %d: shared=%v with %d references", id, s, refs[id])
				}
			}
		})
	}
}

// TestSnapshotLeavesForestUntouched pins that Snapshot only reads: a
// checkpoint taken while another reader predicts from the same forest
// must not compact or renumber it under that reader.
func TestSnapshotLeavesForestUntouched(t *testing.T) {
	f, _, _ := snapTrainForest(t, LinearLeaf, 60)
	n, roots, arrays := f.ar.len(), append([]int32(nil), f.roots...), arenaArrays(&f.ar)
	before := verbatimSnapshot(f)
	f.Snapshot()
	if f.ar.len() != n || !slices.Equal(f.roots, roots) {
		t.Fatalf("Snapshot changed the arena (%d -> %d nodes) or the roots", n, f.ar.len())
	}
	if !slices.Equal(arenaArrays(&f.ar), arrays) || !bytes.Equal(verbatimSnapshot(f), before) {
		t.Fatal("Snapshot rewrote the arena")
	}
}

// TestSnapshotRoundTripIndexed pins the reconstruction rule for a
// bound pool, which the snapshot does not carry: restore, re-bind the
// pool, and the indexed scoring path must match the original's bit
// for bit.
func TestSnapshotRoundTripIndexed(t *testing.T) {
	f, xs, _ := snapTrainForest(t, ConstantLeaf, 50)
	pool := xs[:20]
	f.BindPool(pool)
	idx := make([]int, len(pool))
	for i := range idx {
		idx[i] = i
	}
	_ = f.ALMIndexed(idx) // score before the snapshot, as a learner does

	g, err := Restore(f.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	g.BindPool(pool)
	fScores := f.ALMIndexed(idx)
	gScores := g.ALMIndexed(idx)
	for i := range fScores {
		if fScores[i] != gScores[i] {
			t.Fatalf("ALMIndexed[%d]: %v != %v", i, fScores[i], gScores[i])
		}
	}
}

// TestRestoreCorrupt sweeps single-byte corruption over a forest
// payload: Restore must fail with ErrCorruptSnapshot or succeed —
// never panic. (The container layer's CRC is bypassed deliberately:
// this exercises Restore's own structural validation.)
func TestRestoreCorrupt(t *testing.T) {
	f, _, _ := snapTrainForest(t, LinearLeaf, 25)
	snap := f.Snapshot()
	stride := len(snap)/257 + 1
	for i := 0; i < len(snap); i += stride {
		for _, bit := range []byte{0x01, 0xFF} {
			mut := append([]byte(nil), snap...)
			mut[i] ^= bit
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic restoring snapshot mutated at byte %d: %v", i, r)
					}
				}()
				if _, err := Restore(mut); err != nil && !errors.Is(err, snapshot.ErrCorruptSnapshot) {
					t.Fatalf("byte %d: untyped error %v", i, err)
				}
			}()
		}
	}
	for _, n := range []int{0, 1, 7, len(snap) / 2, len(snap) - 1} {
		if _, err := Restore(snap[:n]); err == nil || !errors.Is(err, snapshot.ErrCorruptSnapshot) {
			t.Fatalf("truncation to %d: err = %v", n, err)
		}
	}
}

// seedForest is a forest small enough for a fuzz seed: a few
// particles over a handful of 2-d observations, with grown splits.
func seedForest(tb testing.TB, leaf LeafModel) *Forest {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Particles = 4
	cfg.ScoreParticles = 0
	cfg.LeafModel = leaf
	f, err := New(cfg, 2, rng.New(71))
	if err != nil {
		tb.Fatal(err)
	}
	r := rng.New(72)
	for i := 0; i < 12; i++ {
		x := []float64{r.Float64(), r.Float64()}
		f.Update(x, 4*x[0]-x[1]+r.NormMS(0, 0.05))
	}
	return f
}

// verbatimSnapshot encodes f's whole arena as it stands — dead nodes,
// stale shared flags and lastLive included — in the layout Snapshot
// shares. Hostile payloads are written with it: Snapshot encodes only
// the live trees in canonical order, which would repair some of them
// (exact shared flags, lastLive recounted) and cannot walk others.
func verbatimSnapshot(f *Forest) []byte {
	n := f.ar.len()
	lo := liveOrder{order: make([]int32, n), remap: make([]int32, n), shared: f.ar.shared, roots: f.roots}
	for i := range lo.order {
		lo.order[i], lo.remap[i] = int32(i), int32(i)
	}
	return f.encode(&lo, f.lastLive)
}

// format3WorkersAt is the offset, in a format-3 payload, at which
// formats 1 and 2 carried the scoring worker count: after the format
// and the eleven configuration fields up to the leaf model.
const format3WorkersAt = 88

// asFormat2 rewrites a format-3 payload in forest format 2, the layout
// earlier builds wrote: the same fields with a zero worker count after
// the leaf model.
func asFormat2(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+8)
	out = binary.LittleEndian.AppendUint64(out, 2) // the format field
	out = append(out, payload[8:format3WorkersAt]...)
	out = binary.LittleEndian.AppendUint64(out, 0) // the worker count
	return append(out, payload[format3WorkersAt:]...)
}

// verbatimSnapshotV1 is verbatimSnapshot in forest format 1, the
// layout earlier builds wrote: the format-2 fields, then every node's
// lower and upper feature bounds, dim floats each, as two
// length-prefixed blocks. Interior nodes get an empty block
// (+Inf/-Inf); no build ever read theirs.
func verbatimSnapshotV1(f *Forest) []byte {
	payload := asFormat2(verbatimSnapshot(f))
	binary.LittleEndian.PutUint64(payload, 1) // the format field
	e := snapshot.NewEncoder(16 + 16*f.ar.len()*f.dim)
	for _, side := range []struct {
		empty float64
		block func(int32) []float64
	}{{math.Inf(1), f.ar.rangeLo}, {math.Inf(-1), f.ar.rangeHi}} {
		e.Int(f.ar.len() * f.dim)
		for id, b := range f.ar.blk {
			for j := 0; j < f.dim; j++ {
				v := side.empty
				if b >= 0 {
					v = side.block(int32(id))[j]
				}
				e.F64(v)
			}
		}
	}
	return append(payload, e.Bytes()...)
}

// scrambledSnapshotV1 is verbatimSnapshotV1 with every value of every
// bounds block replaced by a random one, so no block agrees with its
// leaf's points.
func scrambledSnapshotV1(tb testing.TB, f *Forest) []byte {
	tb.Helper()
	g, err := Restore(verbatimSnapshotV1(f))
	if err != nil {
		tb.Fatal(err)
	}
	r := rng.New(97)
	for _, slab := range [][]float64{g.ar.rlo, g.ar.rhi} {
		for i := range slab {
			slab[i] = r.NormMS(0.5, 2)
		}
	}
	return verbatimSnapshotV1(g)
}

// TestSnapshotIgnoresFormat1Bounds: a format-1 payload's bounds blocks
// cannot desync a forest from its points. Anyone can recompute the
// container checksum, so a payload whose blocks are all scrambled must
// restore to the forest its honest twin restores to: the same bounds,
// the same Snapshot bytes, and the same bytes again after each of the
// updates that follow, whose grow proposals draw cuts from the bounds.
func TestSnapshotIgnoresFormat1Bounds(t *testing.T) {
	for _, leaf := range []LeafModel{ConstantLeaf, LinearLeaf} {
		t.Run(leaf.String(), func(t *testing.T) {
			f, xs, ys := snapTrainForest(t, leaf, 60)
			honest, scrambled := verbatimSnapshotV1(f), scrambledSnapshotV1(t, f)
			if bytes.Equal(honest, scrambled) {
				t.Fatal("scrambling left the payload unchanged")
			}
			g, err := Restore(honest)
			if err != nil {
				t.Fatal(err)
			}
			h, err := Restore(scrambled)
			if err != nil {
				t.Fatal(err)
			}
			if fault := leafBoundsFault(h); fault != "" {
				t.Fatalf("scrambled payload restored: %s", fault)
			}
			for k := range xs {
				if !slices.Equal(g.ar.rlo, h.ar.rlo) || !slices.Equal(g.ar.rhi, h.ar.rhi) || !bytes.Equal(g.Snapshot(), h.Snapshot()) {
					t.Fatalf("after %d updates the scrambled payload's forest differs from its honest twin", k)
				}
				g.Update(xs[k], ys[k])
				h.Update(xs[k], ys[k])
			}
		})
	}
}

// hostileSnapshots returns forest payloads that the container
// checksum cannot catch (anyone can recompute it) and that earlier
// builds accepted or crashed on: a dimension no payload can hold,
// which panicked inside Restore; a negative node depth, which made the
// next Update panic on a pool goroutine; a child link back to its
// ancestor, which made PredictMeanFast loop forever; a lastLive
// beyond the arena, which sized an arena reservation of terabytes; two
// roots aliasing one unflagged node, whose leaves then took every
// point once per alias; and a leaf listing a point twice. Three more
// name a large dimension in a payload with no points: format 2 (like
// format 3) carries
// nothing dim-wide for it, yet Restore reserves the bounds slabs and
// the first update sizes split scratch per particle, all dim floats
// wide. large-dim-one-leaf has one particle and a dim of 2^20, for
// which those reservations come to about 26 GB although it passes a
// guard that counts only one block per leaf and particle; leaf-bound-dim
// has 64 root leaves and the largest dim the guard admits for no
// leaves, so only the guard that counts its leaves rejects it. Every
// payload is in format 2, the layout its committed fuzz seed was
// recorded in; format 3 decodes every field after the header the same
// way.
func hostileSnapshots(tb testing.TB) map[string][]byte {
	tb.Helper()
	valid := asFormat2(verbatimSnapshot(seedForest(tb, ConstantLeaf)))
	mutate := func(edit func(g *Forest, root, child int32)) []byte {
		g, err := Restore(valid)
		if err != nil {
			tb.Fatal(err)
		}
		for _, root := range g.roots {
			if child := g.ar.left[root]; child >= 0 {
				edit(g, root, child)
				return asFormat2(verbatimSnapshot(g))
			}
		}
		tb.Fatal("no particle has grown a split")
		return nil
	}
	withDim := func(payload []byte, dim uint64) []byte {
		payload = append([]byte(nil), payload...)
		binary.LittleEndian.PutUint64(payload[format3WorkersAt+8:], dim) // the format-2 dim field
		return payload
	}
	fresh := func(particles int) []byte {
		cfg := DefaultConfig()
		cfg.Particles = particles
		f, err := New(cfg, 2, rng.New(71))
		if err != nil {
			tb.Fatal(err)
		}
		return asFormat2(f.Snapshot())
	}
	return map[string][]byte{
		"huge-dim":           withDim(valid, 1<<40),
		"huge-dim-no-points": withDim(fresh(4), 1<<40),
		"large-dim-one-leaf": withDim(fresh(1), 1<<20),
		"leaf-bound-dim":     withDim(fresh(64), uint64(derivedBudget(len(fresh(64)))/derivedPerDim(0, 64))),
		"negative-depth": mutate(func(g *Forest, _, child int32) {
			for g.ar.left[child] >= 0 {
				child = g.ar.left[child]
			}
			g.ar.depth[child] = -7
		}),
		"cycle": mutate(func(g *Forest, root, child int32) {
			if g.ar.left[child] < 0 {
				g.ar.right[child] = root
			}
			g.ar.left[child] = root
		}),
		"huge-lastlive": mutate(func(g *Forest, _, _ int32) {
			g.lastLive = 1 << 40
		}),
		"aliased-roots": mutate(func(g *Forest, root, _ int32) {
			for i := range g.roots {
				g.roots[i] = root
			}
			g.ar.shared[root] = false
		}),
		"duplicated-point": mutate(func(g *Forest, _, child int32) {
			for g.ar.left[child] >= 0 {
				child = g.ar.left[child]
			}
			g.ar.pts[child] = append(g.ar.pts[child], g.ar.pts[child][0])
		}),
	}
}

// TestSnapshotRejectsAliasedUnsharedNode shows what the aliased-roots
// payload would do if Restore accepted it: the particles that alias
// one unflagged tree write it in place once each, so after 30 updates
// its leaves list every new point once per alias.
func TestSnapshotRejectsAliasedUnsharedNode(t *testing.T) {
	payload := hostileSnapshots(t)["aliased-roots"]
	if _, err := Restore(payload); !errors.Is(err, snapshot.ErrCorruptSnapshot) {
		t.Fatalf("Restore = %v, want a typed corruption error", err)
	}
	// Bypass the check to show the damage it prevents.
	g, err := Restore(verbatimSnapshot(seedForest(t, ConstantLeaf)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.roots {
		g.roots[i] = g.roots[0]
	}
	g.ar.shared[g.roots[0]] = false
	before := leafPointEntries(&g.ar, g.roots[0], map[int32]int{})
	r := rng.New(73)
	for i := 0; i < 30; i++ {
		g.Update([]float64{r.Float64(), r.Float64()}, r.Float64())
	}
	if got, want := leafPointEntries(&g.ar, g.roots[0], map[int32]int{}), before+30; got == want {
		t.Fatalf("aliased forest kept %d point entries; the unflagged alias did no damage", got)
	}
}

// leafPointEntries counts the point entries in the leaves of the tree
// rooted at id, with multiplicity, memoised per node so shared
// subtrees cost one visit.
func leafPointEntries(ar *nodes, id int32, memo map[int32]int) int {
	if n, ok := memo[id]; ok {
		return n
	}
	n := len(ar.pts[id])
	if ar.left[id] >= 0 {
		n = leafPointEntries(ar, ar.left[id], memo) + leafPointEntries(ar, ar.right[id], memo)
	}
	memo[id] = n
	return n
}

// TestSnapshotRejectsHostilePayloads: each crafted payload fails with
// a typed corruption error instead of panicking or being accepted.
func TestSnapshotRejectsHostilePayloads(t *testing.T) {
	for name, payload := range hostileSnapshots(t) {
		t.Run(name, func(t *testing.T) {
			g, err := Restore(payload)
			if err == nil {
				t.Fatalf("Restore accepted the payload (%d nodes)", g.ar.len())
			}
			if !errors.Is(err, snapshot.ErrCorruptSnapshot) {
				t.Fatalf("untyped error %v", err)
			}
		})
	}
}

// TestSnapshotDimGuardCoversDerivedState pins Restore's dim guard to
// what it guards: the bytes sized by dim that no payload carries (the
// bounds slabs after Restore, and the split scratch after the first
// update) stay within dim*derivedPerDim for the restored leaf and
// particle counts. A payload the guard admits therefore sizes at most
// derivedBudget bytes of them.
func TestSnapshotDimGuardCoversDerivedState(t *testing.T) {
	for _, leaf := range []LeafModel{ConstantLeaf, LinearLeaf} {
		g, err := Restore(verbatimSnapshot(seedForest(t, leaf)))
		if err != nil {
			t.Fatal(err)
		}
		leaves := g.ar.blocks()
		sized := 8 * (cap(g.ar.rlo) + cap(g.ar.rhi))
		x := make([]float64, g.dim)
		for j := range x {
			x[j] = 0.5
		}
		g.Update(x, 0.5)
		for _, p := range g.prop {
			sized += 8*(cap(p.splitLo)+cap(p.splitHi)) + 4*cap(p.splitDims)
		}
		if limit := g.dim * derivedPerDim(leaves, len(g.roots)); sized > limit {
			t.Fatalf("%v: restore and first update sized %d dim-wide bytes, guard allows %d", leaf, sized, limit)
		}
	}
}

// FuzzForestRestore: Restore never panics and rejects only with a
// typed corruption error, and any forest it accepts has leaf bounds
// that match its points and can predict, score, absorb an observation
// — after which every tree's leaves hold one entry per point and the
// bounds still match — and round-trip through Snapshot bit for bit.
// The seed corpus in testdata/fuzz holds valid constant- and
// linear-leaf payloads in the verbatim layout of earlier builds, in
// forest formats 2 and 1, a format-1 payload with scrambled bounds, a
// canonical constant-leaf Snapshot in formats 2 and 3, and one payload
// of each kind
// hostileSnapshots builds; TestFuzzForestRestoreSeeds keeps each equal
// to its generator.
func FuzzForestRestore(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		g, err := Restore(payload)
		if err != nil {
			if !errors.Is(err, snapshot.ErrCorruptSnapshot) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if fault := leafBoundsFault(g); fault != "" {
			t.Fatalf("restored forest: %s", fault)
		}
		x := make([]float64, g.dim)
		y := make([]float64, g.dim)
		for i := range x {
			x[i], y[i] = 0.5, float64(i)
		}
		g.PredictMeanFast(x)
		rows := [][]float64{x, y}
		g.ALCScores(rows, rows)
		g.Update(x, 1)
		memo := map[int32]int{}
		for i, root := range g.roots {
			if got := leafPointEntries(&g.ar, root, memo); got != len(g.points) {
				t.Fatalf("after an update, particle %d's leaves hold %d point entries for %d points", i, got, len(g.points))
			}
		}
		if fault := leafBoundsFault(g); fault != "" {
			t.Fatalf("after an update: %s", fault)
		}
		snap := g.Snapshot()
		h, err := Restore(snap)
		if err != nil {
			t.Fatalf("restoring an accepted forest's snapshot: %v", err)
		}
		if !bytes.Equal(h.Snapshot(), snap) {
			t.Fatal("snapshot of the restored forest differs from the original")
		}
	})
}
