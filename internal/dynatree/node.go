//alic:deterministic
package dynatree

import (
	"math"

	"alic/internal/rng"
)

// point is one training observation owned by the Forest; leaves
// reference points by index so the feature vectors are stored once.
type point struct {
	x []float64
	y float64
}

// nodes is the forest's node arena in struct-of-arrays layout: one
// contiguous slice per field instead of a heap object per tree node.
// Particles are root ids into the arena and share subtrees
// structurally (copy-on-write): resampling duplicates a particle by
// duplicating its root id, and propagate clones only the root-to-leaf
// path it actually rewrites (see Forest.makeWritable). The flat layout
// keeps the descent hot loop (dim/cut/left/right) cache-friendly.
//
// A node is a leaf iff left < 0. Internal nodes always have both
// children, and their (dim, cut) never change after creation, so the
// region of feature space routed into a given node id is an invariant
// of the id: every particle that references a node routes exactly the
// same inputs into it. The ALC kernel's claimed per-leaf reference
// counts rely on this invariant.
type nodes struct {
	depth []int32
	dim   []int32
	cut   []float64
	left  []int32 // -1 marks a leaf
	right []int32

	// shared marks nodes reachable from more than one particle — a
	// lazily-maintained over-approximation: resample marks duplicated
	// roots, path copies mark the off-path children of every cloned
	// node, and a stay copy linked into a second tree is marked too.
	// Every node with more than one reference is marked
	// (unsharedAlias). propagate must clone a shared node before
	// writing to it; unshared nodes are mutated in place.
	shared []bool

	// Leaf payloads.
	pts []([]int)
	s   []suff
	lin []*linSuff

	// Per-leaf feature bounds. blk[id] is leaf id's block in the
	// leaf-only slabs rlo/rhi, stride featDim, and -1 for an interior
	// node: rlo[blk*featDim+j] / rhi[blk*featDim+j] are the observed
	// min/max of feature j over the leaf's points (+Inf/-Inf for an
	// empty leaf). Only grow proposals read them (propPrepare), and
	// only at leaves, so interior nodes carry none: a grow target drops
	// its block (a copied one never gets one), a prune's collapsed
	// parent gains one, and interior path copies copy no floats. Blocks are maintained incrementally on
	// every insert/prune/grow so grow proposals read O(featDim) cached
	// bounds instead of rescanning the leaf's points. Min/max are
	// selection operations, so a block is bit-identical to a fresh scan
	// of its leaf's points in list order, whatever the insertion order;
	// Restore rebuilds blocks that way instead of reading them. Every
	// block belongs to one node. Blocks are appended like nodes, and
	// compaction rebuilds the slabs with the live leaves' blocks only.
	blk     []int32
	featDim int
	rlo     []float64
	rhi     []float64
}

func (a *nodes) len() int { return len(a.left) }

// truncate empties the arena in place, keeping the backing arrays so
// a recycled arena (compaction's generation flip) refills them
// without reallocating.
func (a *nodes) truncate(featDim int) {
	a.depth, a.dim, a.cut = a.depth[:0], a.dim[:0], a.cut[:0]
	a.left, a.right, a.shared = a.left[:0], a.right[:0], a.shared[:0]
	a.pts, a.s, a.lin = a.pts[:0], a.s[:0], a.lin[:0]
	a.blk, a.rlo, a.rhi = a.blk[:0], a.rlo[:0], a.rhi[:0]
	a.featDim = featDim
}

// reserve grows every per-node array's capacity to at least n and the
// bounds slabs' to at least blocks blocks, reallocating only the arrays
// that fall short, so the append-per-field hot paths (newLeaf,
// appendFrom, mergeRange) run without growslice copies until the arena
// crosses n nodes or blocks blocks. Append growth rounds each field's
// capacity to its own size class, so every field is checked. Forest
// sizes both after every compaction (reserveArena), which makes arena
// growth between compactions allocation-free.
func (a *nodes) reserve(n, blocks int) {
	a.depth = withCap(a.depth, n)
	a.dim = withCap(a.dim, n)
	a.cut = withCap(a.cut, n)
	a.left = withCap(a.left, n)
	a.right = withCap(a.right, n)
	a.shared = withCap(a.shared, n)
	a.pts = withCap(a.pts, n)
	a.s = withCap(a.s, n)
	a.lin = withCap(a.lin, n)
	a.blk = withCap(a.blk, n)
	a.rlo = withCap(a.rlo, blocks*a.featDim)
	a.rhi = withCap(a.rhi, blocks*a.featDim)
}

// withCap returns s with capacity at least n. A short array is copied
// into one of at least twice its capacity: the compaction trigger
// moves up and down with the live set, and the two arena generations
// take turns, so exact-size growth would reallocate on most
// compactions.
func withCap[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s
	}
	return append(make([]T, 0, max(n, 2*cap(s))), s...)
}

// unsharedAlias returns a node that is referenced more than once —
// root references and child links, dead nodes' links included — but
// not marked shared, or -1 when there is none. Updates write unshared
// nodes in place, so such a node would take every write once per tree
// that reaches it. Honest arenas never hold one: resample flags
// duplicated roots, makeWritable flags every node it gives a second
// reference, and compaction recomputes the flags exactly. Every id
// must be in range.
func (a *nodes) unsharedAlias(roots []int32) int32 {
	seen := make([]bool, a.len())
	ref := func(id int32) bool {
		if seen[id] && !a.shared[id] {
			return true
		}
		seen[id] = true
		return false
	}
	for _, r := range roots {
		if ref(r) {
			return r
		}
	}
	for id, l := range a.left {
		if l < 0 {
			continue
		}
		if ref(l) {
			return l
		}
		if r := a.right[id]; ref(r) {
			return r
		}
	}
	return -1
}

// miscountedTree returns the first slot whose tree's leaves do not
// hold exactly want point entries, counted with multiplicity, and the
// count it found (saturated at want+1); slot is -1 when every tree
// holds want. Each observation lands in exactly one leaf of every
// tree, so an honest forest holds one entry per point in each. Counts
// are memoised per node, so shared subtrees are summed once. Every id
// must be in range and child links must increase depth.
func (a *nodes) miscountedTree(roots []int32, want int) (slot, got int) {
	count := make([]int, a.len())
	for i := range count {
		count[i] = -1
	}
	var stack []int32
	for i, root := range roots {
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			if count[id] >= 0 {
				stack = stack[:len(stack)-1]
				continue
			}
			l, r := a.left[id], a.right[id]
			switch {
			case l < 0:
				count[id] = min(len(a.pts[id]), want+1)
			case count[l] < 0:
				stack = append(stack, l)
			case count[r] < 0:
				stack = append(stack, r)
			default:
				count[id] = min(count[l]+count[r], want+1)
			}
		}
		if count[root] != want {
			return i, count[root]
		}
	}
	return -1, 0
}

// liveOrder numbers the nodes reachable from a forest's roots in
// canonical order: depth-first from the roots in slot order, each node
// before its left and then its right subtree, a node reached again
// keeping its first number. Dead nodes get no number. Compaction
// rebuilds the arena in this order and Snapshot encodes it, so the
// order depends only on the live trees, never on the arena's history.
type liveOrder struct {
	order  []int32 // canonical id → arena id
	remap  []int32 // arena id → canonical id, -1 for a dead node
	shared []bool  // canonical id → reached by more than one reference
	roots  []int32 // slot → canonical root id
}

// number recomputes the order for arena a and the given roots,
// reusing lo's buffers. Every id must be in range and child links
// must increase depth.
func (lo *liveOrder) number(a *nodes, roots []int32) {
	lo.remap = withCap(lo.remap[:0], a.len())[:a.len()]
	for i := range lo.remap {
		lo.remap[i] = -1
	}
	lo.order, lo.shared, lo.roots = lo.order[:0], lo.shared[:0], lo.roots[:0]
	for _, root := range roots {
		lo.roots = append(lo.roots, lo.visit(a, root))
	}
}

// visit numbers id's subtree and returns id's canonical number.
func (lo *liveOrder) visit(a *nodes, id int32) int32 {
	if nid := lo.remap[id]; nid >= 0 {
		lo.shared[nid] = true
		return nid
	}
	nid := int32(len(lo.order))
	lo.remap[id] = nid
	lo.order = append(lo.order, id)
	lo.shared = append(lo.shared, false)
	if a.left[id] >= 0 {
		lo.visit(a, a.left[id])
		lo.visit(a, a.right[id])
	}
	return nid
}

// child maps a child link to canonical ids; the leaf marker passes
// through.
func (lo *liveOrder) child(id int32) int32 {
	if id < 0 {
		return id
	}
	return lo.remap[id]
}

// newLeaf appends a fresh leaf at the given depth and returns its id.
func (a *nodes) newLeaf(depth int32) int32 {
	id := int32(len(a.left))
	a.depth = append(a.depth, depth)
	a.dim = append(a.dim, 0)
	a.cut = append(a.cut, 0)
	a.left = append(a.left, -1)
	a.right = append(a.right, -1)
	a.shared = append(a.shared, false)
	a.pts = append(a.pts, nil)
	a.s = append(a.s, suff{})
	a.lin = append(a.lin, nil)
	a.blk = append(a.blk, a.newBlock())
	return id
}

// newBlock appends an empty bounds block (+Inf/-Inf) to the slabs and
// returns its index.
func (a *nodes) newBlock() int32 {
	b := int32(a.blocks())
	for j := 0; j < a.featDim; j++ {
		a.rlo = append(a.rlo, math.Inf(1))
		a.rhi = append(a.rhi, math.Inf(-1))
	}
	return b
}

// blocks returns the number of blocks in the slabs, dead ones included.
func (a *nodes) blocks() int {
	if a.featDim == 0 {
		return 0
	}
	return len(a.rlo) / a.featDim
}

// rangeLo / rangeHi return leaf id's per-dimension bound block.
func (a *nodes) rangeLo(id int32) []float64 {
	b := int(a.blk[id])
	return a.rlo[b*a.featDim : (b+1)*a.featDim]
}

func (a *nodes) rangeHi(id int32) []float64 {
	b := int(a.blk[id])
	return a.rhi[b*a.featDim : (b+1)*a.featDim]
}

// foldRange widens leaf id's bounds to cover x.
func (a *nodes) foldRange(id int32, x []float64) {
	lo, hi := a.rangeLo(id), a.rangeHi(id)
	for j, v := range x {
		if v < lo[j] {
			lo[j] = v
		}
		if v > hi[j] {
			hi[j] = v
		}
	}
}

// mergeRange gives interior node id, which a prune is collapsing into
// a leaf, a block holding the union of leaves l and r's bounds.
func (a *nodes) mergeRange(id, l, r int32) {
	a.blk[id] = a.newBlock()
	lo, hi := a.rangeLo(id), a.rangeHi(id)
	llo, lhi := a.rangeLo(l), a.rangeHi(l)
	rlo, rhi := a.rangeLo(r), a.rangeHi(r)
	for j := range lo {
		lo[j], hi[j] = llo[j], lhi[j]
		if rlo[j] < lo[j] {
			lo[j] = rlo[j]
		}
		if rhi[j] > hi[j] {
			hi[j] = rhi[j]
		}
	}
}

func (a *nodes) appendFrom(src *nodes, id int32, withBlock bool) int32 {
	// Direct appends rather than newLeaf + field overwrites: the copy
	// path is the hottest arena producer (every COW path copy), and
	// newLeaf would write defaults only to overwrite every one of them.
	nid := int32(len(a.left))
	a.depth = append(a.depth, src.depth[id])
	a.dim = append(a.dim, src.dim[id])
	a.cut = append(a.cut, src.cut[id])
	a.left = append(a.left, src.left[id])
	a.right = append(a.right, src.right[id])
	a.shared = append(a.shared, false)
	a.pts = append(a.pts, src.pts[id])
	a.s = append(a.s, src.s[id])
	a.lin = append(a.lin, src.lin[id])
	b := int32(-1)
	if sb := src.blk[id]; withBlock && sb >= 0 {
		lo, hi := int(sb)*src.featDim, int(sb+1)*src.featDim
		b = int32(a.blocks())
		a.rlo = append(a.rlo, src.rlo[lo:hi]...)
		a.rhi = append(a.rhi, src.rhi[lo:hi]...)
	}
	a.blk = append(a.blk, b)
	return nid
}

// childScratch holds one proposed grow child outside the arena, so
// rejected grow proposals allocate no permanent nodes.
type childScratch struct {
	pts []int
	s   suff
	lin *linSuff
}

func (c *childScratch) reset() {
	c.pts = c.pts[:0]
	c.s = suff{}
	c.lin = nil
}

// partitionLeaf splits leafPts (plus the optional extra point index,
// folded last; pass extra < 0 for none) by x[dim] < cut into l and r
// without touching the arena, mirroring the two children a grow move
// would create (point order, and therefore the sufficient-statistic
// accumulation order, follows leafPts then extra — exactly the order
// of the leaf's list with the in-flight point appended, without
// materialising that appended list).
func partitionLeaf(leafPts []int, extra int, points []point, dim int, cut float64, l, r *childScratch) {
	l.reset()
	r.reset()
	l.s, r.s = splitSuff(leafPts, extra, points, dim, cut)
	for _, idx := range leafPts {
		if points[idx].x[dim] < cut {
			l.pts = append(l.pts, idx)
		} else {
			r.pts = append(r.pts, idx)
		}
	}
	if extra >= 0 {
		if points[extra].x[dim] < cut {
			l.pts = append(l.pts, extra)
		} else {
			r.pts = append(r.pts, extra)
		}
	}
}

// splitSuff returns the sufficient statistics of the two children
// partitionLeaf builds, without building their point lists: constant
// leaves weigh a grow proposal by these alone.
func splitSuff(leafPts []int, extra int, points []point, dim int, cut float64) (l, r suff) {
	for _, idx := range leafPts {
		if points[idx].x[dim] < cut {
			l.add(points[idx].y)
		} else {
			r.add(points[idx].y)
		}
	}
	if extra >= 0 {
		if points[extra].x[dim] < cut {
			l.add(points[extra].y)
		} else {
			r.add(points[extra].y)
		}
	}
	return l, r
}

// proposeSplit samples a grow proposal for the leaf: a dimension chosen
// uniformly among dimensions where the leaf's points are not constant,
// and a cut drawn uniformly between the observed minimum and maximum in
// that dimension. Returns ok=false if no dimension admits a split.
func proposeSplit(leafPts []int, points []point, r *rng.Stream) (dim int, cut float64, ok bool) {
	if len(leafPts) < 2 {
		return 0, 0, false
	}
	d := len(points[leafPts[0]].x)
	// Collect splittable dimensions.
	var splittable []int
	for j := 0; j < d; j++ {
		lo, hi := points[leafPts[0]].x[j], points[leafPts[0]].x[j]
		for _, idx := range leafPts[1:] {
			v := points[idx].x[j]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi > lo {
			splittable = append(splittable, j)
		}
	}
	if len(splittable) == 0 {
		return 0, 0, false
	}
	dim = splittable[r.Intn(len(splittable))]
	lo, hi := points[leafPts[0]].x[dim], points[leafPts[0]].x[dim]
	for _, idx := range leafPts[1:] {
		v := points[idx].x[dim]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	// Uniform cut strictly inside (lo, hi): both extremes end up on
	// opposite sides, so neither child is empty.
	for i := 0; i < 8; i++ {
		cut = lo + r.Float64()*(hi-lo)
		if cut > lo && cut < hi {
			return dim, cut, true
		}
	}
	// Degenerate floating-point range.
	return 0, 0, false
}

// proposeSplitRanged is proposeSplit fed by precomputed per-dimension
// bounds instead of a point scan: dims lists the splittable dimensions
// (hi[j] > lo[j]) in ascending order, lo/hi are full featDim-wide
// bound arrays covering the leaf's points plus the in-flight one. The
// rng draw sequence — one Intn over the splittable count, then up to
// eight cut draws — is exactly proposeSplit's, so the two are
// bit-interchangeable (pinned by TestProposeSplitRangedMatchesScan).
// The caller guarantees len(dims) > 0.
//
//alic:noalloc
func proposeSplitRanged(dims []int32, lo, hi []float64, r *rng.Stream) (dim int, cut float64, ok bool) {
	dim = int(dims[r.Intn(len(dims))])
	l, h := lo[dim], hi[dim]
	// Uniform cut strictly inside (l, h): both extremes end up on
	// opposite sides, so neither child is empty.
	for i := 0; i < 8; i++ {
		cut = l + r.Float64()*(h-l)
		if cut > l && cut < h {
			return dim, cut, true
		}
	}
	// Degenerate floating-point range.
	return 0, 0, false
}
