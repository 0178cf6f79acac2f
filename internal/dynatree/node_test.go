package dynatree

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"alic/internal/rng"
)

func mkPoints(xs [][]float64, ys []float64) []point {
	pts := make([]point, len(xs))
	for i := range xs {
		pts[i] = point{x: xs[i], y: ys[i]}
	}
	return pts
}

// mkTree builds a small manual arena tree for routing tests:
// split dim0 at 0.5; the right child splits dim1 at 0.3.
func mkTree(a *nodes) (root, l, rl, rr int32) {
	root = a.newLeaf(0)
	l = a.newLeaf(1)
	r := a.newLeaf(1)
	rl = a.newLeaf(2)
	rr = a.newLeaf(2)
	a.dim[root], a.cut[root] = 0, 0.5
	a.left[root], a.right[root] = l, r
	a.dim[r], a.cut[r] = 1, 0.3
	a.left[r], a.right[r] = rl, rr
	return root, l, rl, rr
}

func TestDescendRoutesCorrectly(t *testing.T) {
	f := &Forest{}
	root, l, rl, rr := mkTree(&f.ar)
	cases := []struct {
		x    []float64
		want int32
	}{
		{[]float64{0.2, 0.9}, l},
		{[]float64{0.7, 0.1}, rl},
		{[]float64{0.7, 0.8}, rr},
		{[]float64{0.5, 0.3}, rr}, // boundary goes right
	}
	for _, c := range cases {
		if got := f.leafOf(root, c.x); got != c.want {
			t.Fatalf("leafOf(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	// Descents may start at an interior node: starting at the right
	// child must agree.
	r := f.ar.left[root] // sanity: left is a leaf
	if f.ar.left[r] >= 0 {
		t.Fatal("left child should be a leaf")
	}
	if got := f.leafOf(f.ar.right[root], []float64{0.7, 0.1}); got != rl {
		t.Fatalf("partial descent from interior node = %d, want %d", got, rl)
	}
}

func TestCopyNodeIsolatesWrites(t *testing.T) {
	var a nodes
	id := a.newLeaf(1)
	a.pts[id] = append(a.pts[id], 0, 1)
	a.s[id] = suffOf(1, 2)
	cp := a.appendFrom(&a, id, true)
	// Appending points to the copy must not leak into the original,
	// even though the pts backing array is shared at copy time.
	a.pts[cp] = append(a.pts[cp], 99)
	a.s[cp].add(50)
	if len(a.pts[id]) != 2 || a.s[id].n != 2 {
		t.Fatalf("copy shared state with original: pts=%v s=%+v", a.pts[id], a.s[id])
	}
	if len(a.pts[cp]) != 3 || a.s[cp].n != 3 {
		t.Fatalf("copy lost its own write: pts=%v s=%+v", a.pts[cp], a.s[cp])
	}
}

// TestStayAppendOnCopyAllocatesNothing pins the in-place stay commit: a
// copy keeps its original's spare capacity, so appending the new point
// to it (propCommit's stay append) reuses the shared backing array
// instead of reallocating the list, and the original still sees only
// its own points.
func TestStayAppendOnCopyAllocatesNothing(t *testing.T) {
	var a nodes
	id := a.newLeaf(1)
	a.pts[id] = append(make([]int, 0, 8), 0, 1)
	cp := a.appendFrom(&a, id, true)
	if allocs := testing.AllocsPerRun(100, func() {
		a.pts[cp] = append(a.pts[cp][:2], 99)
	}); allocs != 0 {
		t.Fatalf("stay append on a copy with spare capacity allocates %v times", allocs)
	}
	if &a.pts[cp][0] != &a.pts[id][0] {
		t.Fatal("stay append on a copy with spare capacity reallocated the list")
	}
	if len(a.pts[id]) != 2 || a.pts[cp][2] != 99 {
		t.Fatalf("original %v, copy %v after the copy's append", a.pts[id], a.pts[cp])
	}
}

func TestMakeWritableClonesSharedPath(t *testing.T) {
	cfg := smallConfig()
	cfg.Particles = 2
	f, err := New(cfg, 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	root, _, _, _ := mkTree(&f.ar)
	f.roots[0], f.roots[1] = root, root
	f.ar.shared[root] = true

	x := []float64{0.7, 0.1} // routes to the right child's left leaf
	chain := []int32{root, f.ar.right[root], f.leafOf(root, x)}
	target, fresh := f.makeWritable(0, chain, false)
	if !fresh || target == chain[2] {
		t.Fatal("shared leaf was not cloned")
	}
	if f.roots[0] == root {
		t.Fatal("shared root was not cloned")
	}
	if f.roots[1] != root {
		t.Fatal("other particle's root moved")
	}
	// The off-path children must now be marked shared (referenced by
	// both the original and the cloned path).
	if !f.ar.shared[f.ar.left[root]] {
		t.Fatal("off-path left child not marked shared")
	}
	if !f.ar.shared[f.ar.right[f.ar.right[root]]] {
		t.Fatal("off-path grandchild not marked shared")
	}
	// The clone routes identically and is writable without affecting
	// the original tree.
	if f.leafOf(f.roots[0], x) != target {
		t.Fatal("cloned path does not route to the writable target")
	}
	f.ar.s[target].add(5)
	if f.ar.s[chain[2]].n != 0 {
		t.Fatal("write to clone leaked into the shared original")
	}
	// An exclusively-owned chain is returned as-is.
	chain1 := []int32{f.roots[0], f.ar.right[f.roots[0]], f.leafOf(f.roots[0], x)}
	if got, fresh := f.makeWritable(0, chain1, false); !fresh || got != chain1[2] {
		t.Fatal("unshared chain was cloned")
	}
}

// TestMakeWritableSharesStayCopies: within one observation, a second
// stay commit through a shared path links the first one's copy instead
// of cloning again, and marks it shared; a grow or prune through the
// same path still clones, and the next observation starts a new memo.
func TestMakeWritableSharesStayCopies(t *testing.T) {
	cfg := smallConfig()
	cfg.Particles = 3
	f, err := New(cfg, 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	root, _, _, _ := mkTree(&f.ar)
	f.roots[0], f.roots[1], f.roots[2] = root, root, root
	f.ar.shared[root] = true
	x := []float64{0.7, 0.1}
	chain := []int32{root, f.ar.right[root], f.leafOf(root, x)}

	f.nextStayMemo(f.ar.len())
	n0 := f.ar.len()
	t0, fresh := f.makeWritable(0, chain, true)
	if !fresh || f.ar.len() != n0+len(chain) {
		t.Fatalf("first stay: fresh=%v, %d nodes appended, want a fresh %d-node path", fresh, f.ar.len()-n0, len(chain))
	}
	t1, fresh := f.makeWritable(1, chain, true)
	if fresh || t1 != t0 || f.roots[1] != f.roots[0] || f.ar.len() != n0+len(chain) {
		t.Fatalf("second stay: fresh=%v target %d (first %d), roots %d/%d, %d nodes appended",
			fresh, t1, t0, f.roots[1], f.roots[0], f.ar.len()-n0)
	}
	if !f.ar.shared[f.roots[0]] {
		t.Fatal("memoised copy linked into a second tree is not marked shared")
	}
	if t2, fresh := f.makeWritable(2, chain, false); !fresh || t2 == t0 || f.ar.len() != n0+2*len(chain) {
		t.Fatal("a non-stay commit reused the stay memo")
	}

	f.nextStayMemo(f.ar.len())
	chain0 := []int32{f.roots[0], f.ar.right[f.roots[0]], t0}
	if got, fresh := f.makeWritable(0, chain0, true); !fresh || got == t0 {
		t.Fatal("a stale memo entry survived into the next observation")
	}
}

func TestProposeSplitSeparatesChildren(t *testing.T) {
	r := rng.New(3)
	xs := [][]float64{{0, 5}, {1, 5}, {2, 5}, {3, 5}}
	ys := []float64{1, 2, 3, 4}
	pts := mkPoints(xs, ys)
	leafPts := []int{0, 1, 2, 3}
	var l, rr childScratch
	for i := 0; i < 100; i++ {
		dim, cut, ok := proposeSplit(leafPts, pts, r)
		if !ok {
			t.Fatal("split should be possible")
		}
		if dim != 0 {
			t.Fatalf("dim 1 is constant; proposed dim %d", dim)
		}
		partitionLeaf(leafPts, -1, pts, dim, cut, &l, &rr)
		if l.s.n == 0 || rr.s.n == 0 {
			t.Fatalf("empty child with cut %v", cut)
		}
		if l.s.n+rr.s.n != 4 {
			t.Fatal("children lost points")
		}
	}
}

func TestProposeSplitConstantLeaf(t *testing.T) {
	r := rng.New(4)
	xs := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	pts := mkPoints(xs, []float64{1, 2, 3})
	if _, _, ok := proposeSplit([]int{0, 1, 2}, pts, r); ok {
		t.Fatal("split proposed for constant features")
	}
}

func TestProposeSplitSinglePoint(t *testing.T) {
	r := rng.New(5)
	pts := mkPoints([][]float64{{1}}, []float64{1})
	if _, _, ok := proposeSplit([]int{0}, pts, r); ok {
		t.Fatal("split proposed for single point")
	}
}

// TestProposeSplitRangedMatchesScan pins the bit-interchangeability of
// proposeSplitRanged with proposeSplit: fed the scan's own bounds and
// twin rng streams, the two must return identical (dim, cut, ok) —
// same Intn over the same splittable-dimension count, same cut-draw
// loop — across point sets with constant dimensions, degenerate
// ranges and everything in between.
func TestProposeSplitRangedMatchesScan(t *testing.T) {
	r1 := rng.New(77)
	r2 := rng.New(77)
	gen := rng.New(78)
	for trial := 0; trial < 300; trial++ {
		n := 2 + gen.Intn(12)
		d := 1 + gen.Intn(4)
		xs := make([][]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = make([]float64, d)
			for j := range xs[i] {
				// Coarse grid so constant dimensions actually occur.
				xs[i][j] = float64(gen.Intn(4))
			}
			ys[i] = gen.Float64()
		}
		pts := mkPoints(xs, ys)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		lo := make([]float64, d)
		hi := make([]float64, d)
		var dims []int32
		for j := 0; j < d; j++ {
			lo[j], hi[j] = xs[0][j], xs[0][j]
			for i := 1; i < n; i++ {
				if v := xs[i][j]; v < lo[j] {
					lo[j] = v
				}
				if v := xs[i][j]; v > hi[j] {
					hi[j] = v
				}
			}
			if hi[j] > lo[j] {
				dims = append(dims, int32(j))
			}
		}
		wantDim, wantCut, wantOK := proposeSplit(idx, pts, r1)
		if len(dims) == 0 {
			// No splittable dimension: proposeSplit bails before any rng
			// draw, and propPrepare never calls the ranged variant — the
			// streams stay in lockstep for the next trial.
			if wantOK {
				t.Fatalf("trial %d: scan proposed a split with no splittable dimension", trial)
			}
			continue
		}
		gotDim, gotCut, gotOK := proposeSplitRanged(dims, lo, hi, r2)
		if gotDim != wantDim || gotCut != wantCut || gotOK != wantOK {
			t.Fatalf("trial %d: ranged (%d, %v, %v) != scan (%d, %v, %v)",
				trial, gotDim, gotCut, gotOK, wantDim, wantCut, wantOK)
		}
	}
}

func TestPartitionPreservesSuffStats(t *testing.T) {
	if err := quick.Check(func(raw []int8, seed uint32) bool {
		if len(raw) < 2 {
			return true
		}
		r := rng.New(uint64(seed))
		xs := make([][]float64, len(raw))
		ys := make([]float64, len(raw))
		var whole suff
		for i, v := range raw {
			xs[i] = []float64{float64(v), float64(i % 3)}
			ys[i] = float64(v) / 2
			whole.add(ys[i])
		}
		pts := mkPoints(xs, ys)
		idx := make([]int, len(raw))
		for i := range idx {
			idx[i] = i
		}
		dim, cut, ok := proposeSplit(idx, pts, r)
		if !ok {
			return true
		}
		var l, rr childScratch
		partitionLeaf(idx, -1, pts, dim, cut, &l, &rr)
		m := l.s.merge(rr.s)
		return m.n == whole.n &&
			almostEq(m.sumY, whole.sumY) && almostEq(m.sumY2, whole.sumY2) &&
			l.s.n > 0 && rr.s.n > 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if a > 1 || a < -1 {
		if a < 0 {
			scale = -a
		} else {
			scale = a
		}
	}
	return d <= 1e-9*scale
}

func TestTreeShapeAndCompaction(t *testing.T) {
	f := &Forest{}
	root, _, _, _ := mkTree(&f.ar)
	f.roots = []int32{root}
	nodes, leaves, depth := f.treeShape(root)
	if nodes != 5 || leaves != 3 || depth != 2 {
		t.Fatalf("nodes=%d leaves=%d depth=%d", nodes, leaves, depth)
	}
	// Compaction drops garbage, preserves structure and recomputes
	// shared flags.
	garbage := f.ar.newLeaf(7)
	_ = garbage
	f.compact()
	if f.ar.len() != 5 {
		t.Fatalf("compacted arena has %d nodes, want 5", f.ar.len())
	}
	n2, l2, d2 := f.treeShape(f.roots[0])
	if n2 != 5 || l2 != 3 || d2 != 2 {
		t.Fatalf("post-compaction shape nodes=%d leaves=%d depth=%d", n2, l2, d2)
	}
	for id := 0; id < f.ar.len(); id++ {
		if f.ar.shared[id] {
			t.Fatalf("single-tree arena has shared node %d after compaction", id)
		}
	}
}

func TestCompactionPreservesSharing(t *testing.T) {
	cfg := smallConfig()
	cfg.Particles = 40
	f, err := New(cfg, 1, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(10)
	for i := 0; i < 120; i++ {
		x := r.Float64()
		f.Update([]float64{x}, 2*x+r.NormMS(0, 0.1))
	}
	before := make([]float64, 0, 20)
	probes := make([][]float64, 0, 20)
	for v := 0.025; v < 1; v += 0.05 {
		x := []float64{v}
		probes = append(probes, x)
		m, _ := f.Predict(x)
		before = append(before, m)
	}
	live := 0
	seen := make(map[int32]bool)
	var count func(id int32)
	count = func(id int32) {
		if seen[id] {
			return
		}
		seen[id] = true
		live++
		if f.ar.left[id] >= 0 {
			count(f.ar.left[id])
			count(f.ar.right[id])
		}
	}
	for _, root := range f.roots {
		count(root)
	}
	f.compact()
	if f.ar.len() != live {
		t.Fatalf("compaction kept %d nodes, want the %d live ones", f.ar.len(), live)
	}
	for i, x := range probes {
		if m, _ := f.Predict(x); m != before[i] {
			t.Fatalf("compaction changed Predict(%v): %v -> %v", x, before[i], m)
		}
	}
}

// TestCompactionTriggerUpdateAppendsInPlace pins the arena headroom:
// the update that crosses the compaction trigger still appends before
// maybeCompact runs, so the reservation must cover it. Every field of
// the arena that update retires to the spare generation must be the
// backing array it started on — no growslice copied the arena on the
// way to the trigger.
func TestCompactionTriggerUpdateAppendsInPlace(t *testing.T) {
	cfg := smallConfig()
	cfg.Particles = 200
	f, err := New(cfg, 3, rng.New(81))
	if err != nil {
		t.Fatal(err)
	}
	gen := rng.New(82)
	compactions := 0
	for i := 0; i < 300; i++ {
		before := arenaArrays(&f.ar)
		x := []float64{gen.Float64(), gen.Float64(), gen.Float64()}
		f.Update(x, x[0]*x[1]-x[2]+gen.NormMS(0, 0.05))
		now, retired := arenaArrays(&f.ar), arenaArrays(&f.spare)
		for k := range before {
			if before[k] == now[k] {
				continue
			}
			if before[k] != retired[k] {
				t.Fatalf("update %d reallocated arena field %d before compacting", i, k)
			}
			if k == 0 {
				compactions++
			}
		}
	}
	if compactions < 3 {
		t.Fatalf("only %d compactions in 300 updates; the test no longer crosses the trigger", compactions)
	}
}

// arenaArrays returns the backing array of every arena field.
func arenaArrays(a *nodes) []any {
	return []any{base(a.depth), base(a.dim), base(a.cut), base(a.left), base(a.right),
		base(a.shared), base(a.pts), base(a.s), base(a.lin), base(a.rlo), base(a.rhi), base(a.blk)}
}

// leafBoundsFault checks the bounds slabs against the trees and
// returns the first violation, or "" when there is none: every live
// leaf's block must hold, bit for bit, a fresh scan of its points in
// list order; no two live leaves may share a block; and every interior
// node, dead ones included, must have none.
func leafBoundsFault(f *Forest) string {
	ar := &f.ar
	owner := map[int32]int32{}
	seen := make([]bool, ar.len())
	stack := append([]int32(nil), f.roots...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		if ar.left[id] >= 0 {
			stack = append(stack, ar.left[id], ar.right[id])
			continue
		}
		b := ar.blk[id]
		if b < 0 {
			return fmt.Sprintf("live leaf %d has no block", id)
		}
		if other, ok := owner[b]; ok {
			return fmt.Sprintf("live leaves %d and %d share block %d", other, id, b)
		}
		owner[b] = id
		lo, hi := ar.rangeLo(id), ar.rangeHi(id)
		for j := 0; j < ar.featDim; j++ {
			wantLo, wantHi := math.Inf(1), math.Inf(-1)
			for _, pi := range ar.pts[id] {
				v := f.points[pi].x[j]
				if v < wantLo {
					wantLo = v
				}
				if v > wantHi {
					wantHi = v
				}
			}
			if math.Float64bits(lo[j]) != math.Float64bits(wantLo) || math.Float64bits(hi[j]) != math.Float64bits(wantHi) {
				return fmt.Sprintf("leaf %d feature %d: block [%v, %v], points span [%v, %v]", id, j, lo[j], hi[j], wantLo, wantHi)
			}
		}
	}
	for id, l := range ar.left {
		if l >= 0 && ar.blk[id] != -1 {
			return fmt.Sprintf("interior node %d has block %d", id, ar.blk[id])
		}
	}
	return ""
}

// TestLeafBoundsMatchPoints pins the leaf-only bounds slabs through
// every kind of update: after each of 300 updates, across at least
// three compactions and for both leaf models, leafBoundsFault finds
// nothing.
func TestLeafBoundsMatchPoints(t *testing.T) {
	for _, leaf := range []LeafModel{ConstantLeaf, LinearLeaf} {
		t.Run(leaf.String(), func(t *testing.T) {
			cfg := smallConfig()
			cfg.Particles = 200
			cfg.LeafModel = leaf
			f, err := New(cfg, 3, rng.New(91))
			if err != nil {
				t.Fatal(err)
			}
			gen := rng.New(92)
			compactions := 0
			for i := 0; i < 300; i++ {
				gen0 := base(f.ar.depth)
				x := []float64{gen.Float64(), gen.Float64(), gen.Float64()}
				f.Update(x, x[0]*x[1]-x[2]+gen.NormMS(0, 0.05))
				if base(f.ar.depth) != gen0 {
					compactions++
				}
				if fault := leafBoundsFault(f); fault != "" {
					t.Fatalf("after update %d: %s", i, fault)
				}
			}
			if compactions < 3 {
				t.Fatalf("only %d compactions in 300 updates; the test no longer crosses the trigger", compactions)
			}
		})
	}
}

func base[T any](s []T) *T {
	if cap(s) == 0 {
		return nil
	}
	return &s[:cap(s)][0]
}
