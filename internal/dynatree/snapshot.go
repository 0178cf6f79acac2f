package dynatree

import (
	"alic/internal/rng"
	"alic/internal/snapshot"
)

// forestFormat versions the forest payload inside the container
// section; bump it when the field layout below changes shape. Format 2
// dropped the per-node feature bounds blocks that ended format 1's
// payload: Restore derives every leaf's bounds from its points.
// Format 3 dropped the scoring worker count that followed the leaf
// model in formats 1 and 2. This build reads all three.
const forestFormat = 3

// derivedBudget is how many bytes of dim-wide state Restore lets a
// payload of payloadLen bytes size without carrying it (derivedPerDim
// bytes per feature dimension). It grows with the payload and has a
// fixed floor, so an honest forest restores whatever its dim as long
// as that state stays within 64 MB plus 64 times its payload, while a
// short payload naming a huge dim fails before anything is sized by it.
func derivedBudget(payloadLen int) int { return 64*payloadLen + 64<<20 }

// derivedPerDim is how many bytes per feature dimension Restore and
// the first update size for a forest holding leaves leaves over
// particles particles without the payload carrying them: the bounds
// slabs reserveArena reserves (two float64s per block, slabBlocks) and
// each particle's split scratch (two float64 bounds and an int32
// dimension list, ensurePropScratch).
func derivedPerDim(leaves, particles int) int {
	return 16*slabBlocks(leaves) + 20*particles
}

// Snapshot serializes the forest's complete model state — resolved
// configuration, training points, the live particle trees and the rng
// stream position — into a payload restorable with Restore. Leaves'
// feature bounds are not written: they are a function of each leaf's
// points, which Restore rescans (since forestFormat 2). Only the
// nodes reachable from the roots are written, numbered in canonical
// order (liveOrder) with exact shared flags and the live node count as
// lastLive, so the bytes depend only on the live state: dead path
// copies never ride along, and two forests with the same trees, points
// and rng position encode identically whatever their arena history.
// Node ids are observationally invisible (see maybeCompact), so the
// renumbering changes no prediction, draw or update. The bound pool is
// not part of the model (call BindPool again after Restore), and pure
// caches are deliberately omitted: the NIG memo tables, the split
// prior tables, and every lazily-cached linear-leaf posterior (all
// bit-identical when recomputed). The restored forest therefore
// produces byte-identical predictions, draws and updates. Snapshot
// only reads the forest.
func (f *Forest) Snapshot() []byte {
	var lo liveOrder
	lo.number(&f.ar, f.roots)
	return f.encode(&lo, len(lo.order))
}

// encode writes the payload for the arena nodes lo numbers, in lo's
// order, with lo's roots and shared flags and the given lastLive.
func (f *Forest) encode(lo *liveOrder, lastLive int) []byte {
	n := len(lo.order)
	e := snapshot.NewEncoder(1024 + 64*n + 16*len(f.points)*f.dim)
	e.Int(forestFormat)

	// Resolved configuration (after any CalibratePrior).
	e.Int(f.cfg.Particles)
	e.Int(f.cfg.ScoreParticles)
	e.F64(f.cfg.Alpha)
	e.F64(f.cfg.Beta)
	e.F64(f.cfg.M0)
	e.F64(f.cfg.Kappa0)
	e.F64(f.cfg.A0)
	e.F64(f.cfg.B0)
	e.Int(f.cfg.MinLeafForSplit)
	e.Int(int(f.cfg.LeafModel))

	e.Int(f.dim)

	// Training points, features flattened row-major.
	e.Int(len(f.points))
	for _, p := range f.points {
		for _, v := range p.x {
			e.F64(v)
		}
	}
	for _, p := range f.points {
		e.F64(p.y)
	}

	e.Int32s(lo.roots)
	e.Int(lastLive)

	st := f.r.State()
	for _, w := range st {
		e.U64(w)
	}

	// Node count, then one length-prefixed block per field in the
	// layout Int32s and F64s write, child links renumbered.
	ar := &f.ar
	e.Int(n)
	e.Int(n)
	for _, id := range lo.order {
		e.U32(uint32(ar.depth[id]))
	}
	e.Int(n)
	for _, id := range lo.order {
		e.U32(uint32(ar.dim[id]))
	}
	e.Int(n)
	for _, id := range lo.order {
		e.F64(ar.cut[id])
	}
	e.Int(n)
	for _, id := range lo.order {
		e.U32(uint32(lo.child(ar.left[id])))
	}
	e.Int(n)
	for _, id := range lo.order {
		e.U32(uint32(lo.child(ar.right[id])))
	}
	for _, s := range lo.shared {
		e.Bool(s)
	}
	for _, id := range lo.order {
		e.Ints(ar.pts[id])
		s := ar.s[id]
		e.Int(s.n)
		e.F64(s.sumY)
		e.F64(s.sumY2)
		lin := ar.lin[id]
		e.Bool(lin != nil)
		if lin != nil {
			// Sufficient statistics only: the cached Cholesky posterior
			// is a deterministic function of them and rebuilds on first
			// use.
			e.Int(lin.n)
			for i := 0; i < lin.d; i++ {
				for j := 0; j < lin.d; j++ {
					e.F64(lin.xtx[i][j])
				}
			}
			for i := 0; i < lin.d; i++ {
				e.F64(lin.xty[i])
			}
			e.F64(lin.yty)
		}
	}
	return e.Bytes()
}

// Restore reconstructs a forest from a Snapshot payload. Structural
// invariants (id ranges, slice lengths, point indices) are verified
// before use, so corrupt input that survived the container checksum
// still fails with a typed error rather than a panic. The restored
// arena holds exactly the payload's nodes: the live trees of a
// Snapshot, or the whole arena with its dead nodes for payloads
// written by earlier builds, which shared this layout and restore
// unchanged. Every leaf's feature bounds are derived by scanning its
// validated points in list order, which gives the bits incremental
// maintenance gives (min/max are selections). Format 1 payloads still
// restore: their bounds blocks are read, length-checked and discarded,
// so bounds that disagree with the points cannot reach a grow
// proposal. The dimension is checked against derivedBudget for the
// state it sizes without the payload carrying it (derivedPerDim),
// before anything is sized by it. The bound pool is not part of the
// snapshot: call BindPool afterwards to re-enable the indexed entry
// points.
func Restore(payload []byte) (*Forest, error) {
	const sec = "dynatree.forest"
	d := snapshot.NewDecoder(sec, payload)
	format := d.Int()
	if d.Err() == nil && (format < 1 || format > forestFormat) {
		return nil, snapshot.Corruptf(sec, "forest format %d, this build reads 1 to %d", format, forestFormat)
	}

	var cfg Config
	cfg.Particles = d.Int()
	cfg.ScoreParticles = d.Int()
	cfg.Alpha = d.F64()
	cfg.Beta = d.F64()
	cfg.M0 = d.F64()
	cfg.Kappa0 = d.F64()
	cfg.A0 = d.F64()
	cfg.B0 = d.F64()
	cfg.MinLeafForSplit = d.Int()
	cfg.LeafModel = LeafModel(d.Int())
	if format < 3 {
		d.Int() // the retired scoring worker count
	}

	dim := d.Int()
	npts := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, snapshot.Corruptf(sec, "invalid config: %v", err)
	}
	// Each particle's root id takes four payload bytes, and the split
	// scratch and the bounds slabs are sized by dim without being
	// carried, so the particle count and the dimension are checked
	// against the payload before anything is sized by them: here with
	// no leaves, and again with the leaf count once the nodes are read.
	if cfg.Particles > d.Remaining()/4 {
		return nil, snapshot.Corruptf(sec, "%d particles with %d bytes left", cfg.Particles, d.Remaining())
	}
	budget := derivedBudget(len(payload))
	if dim < 1 || dim > budget/derivedPerDim(0, cfg.Particles) {
		return nil, snapshot.Corruptf(sec, "dimension %d for %d particles in a %d-byte payload", dim, cfg.Particles, len(payload))
	}
	if cfg.LeafModel != ConstantLeaf && cfg.LeafModel != LinearLeaf {
		return nil, snapshot.Corruptf(sec, "unknown leaf model %d", int(cfg.LeafModel))
	}
	if npts < 0 || npts > d.Remaining()/(8*dim) {
		return nil, snapshot.Corruptf(sec, "point count %d with %d bytes left", npts, d.Remaining())
	}

	// Points: intern features in one arena block, as appendPoint does.
	xArena := make([]float64, 0, npts*dim)
	for i := 0; i < npts*dim; i++ {
		xArena = append(xArena, d.F64())
	}
	points := make([]point, npts)
	for i := range points {
		points[i].x = xArena[i*dim : (i+1)*dim : (i+1)*dim]
	}
	for i := range points {
		points[i].y = d.F64()
	}

	roots := d.Int32s()
	lastLive := d.Int()
	var st [6]uint64
	for i := range st {
		st[i] = d.U64()
	}

	n := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(roots) != cfg.Particles {
		return nil, snapshot.Corruptf(sec, "%d roots for %d particles", len(roots), cfg.Particles)
	}
	if n < 0 || n > d.Remaining() {
		return nil, snapshot.Corruptf(sec, "node count %d with %d bytes left", n, d.Remaining())
	}

	var ar nodes
	ar.featDim = dim
	ar.depth = d.Int32s()
	ar.dim = d.Int32s()
	ar.cut = d.F64s()
	ar.left = d.Int32s()
	ar.right = d.Int32s()
	ar.shared = make([]bool, n)
	for i := range ar.shared {
		ar.shared[i] = d.Bool()
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(ar.depth) != n || len(ar.dim) != n || len(ar.cut) != n || len(ar.left) != n || len(ar.right) != n {
		return nil, snapshot.Corruptf(sec, "arena field lengths disagree with node count %d", n)
	}
	ar.pts = make([][]int, n)
	ar.s = make([]suff, n)
	ar.lin = make([]*linSuff, n)
	for id := 0; id < n; id++ {
		ar.pts[id] = d.Ints()
		ar.s[id] = suff{n: d.Int(), sumY: d.F64(), sumY2: d.F64()}
		if d.Bool() {
			if (dim+1)*(dim+1) > d.Remaining()/8 {
				return nil, snapshot.Corruptf(sec, "node %d linear statistics of dim %d with %d bytes left", id, dim, d.Remaining())
			}
			lin := newLinSuff(dim)
			lin.n = d.Int()
			for i := 0; i < lin.d; i++ {
				for j := 0; j < lin.d; j++ {
					lin.xtx[i][j] = d.F64()
				}
			}
			for i := 0; i < lin.d; i++ {
				lin.xty[i] = d.F64()
			}
			lin.yty = d.F64()
			lin.dirty = true
			ar.lin[id] = lin
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
	}
	if format == 1 {
		rlo, rhi := d.F64s(), d.F64s()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if len(rlo) != n*dim || len(rhi) != n*dim {
			return nil, snapshot.Corruptf(sec, "range blocks %d/%d for %d nodes of dim %d", len(rlo), len(rhi), n, dim)
		}
	}

	// Structural validation: every reference must be in range before
	// any descent touches the arena. Depths are non-negative, every
	// child sits one level below its parent and every root at depth 0,
	// so depth strictly grows along every child link and no descent
	// can cycle.
	for id := 0; id < n; id++ {
		l, r := ar.left[id], ar.right[id]
		if ar.depth[id] < 0 {
			return nil, snapshot.Corruptf(sec, "node %d depth %d", id, ar.depth[id])
		}
		if (l < 0) != (r < 0) {
			return nil, snapshot.Corruptf(sec, "node %d has one child", id)
		}
		if l >= 0 {
			if int(l) >= n || int(r) >= n {
				return nil, snapshot.Corruptf(sec, "node %d children %d/%d out of range", id, l, r)
			}
			if ar.depth[l] != ar.depth[id]+1 || ar.depth[r] != ar.depth[id]+1 {
				return nil, snapshot.Corruptf(sec, "node %d at depth %d has children at depths %d/%d", id, ar.depth[id], ar.depth[l], ar.depth[r])
			}
			if int(ar.dim[id]) < 0 || int(ar.dim[id]) >= dim {
				return nil, snapshot.Corruptf(sec, "node %d split dimension %d", id, ar.dim[id])
			}
		} else if cfg.LeafModel == LinearLeaf && ar.lin[id] == nil {
			return nil, snapshot.Corruptf(sec, "linear-leaf forest with bare leaf %d", id)
		}
		for _, pi := range ar.pts[id] {
			if pi < 0 || pi >= npts {
				return nil, snapshot.Corruptf(sec, "node %d references point %d of %d", id, pi, npts)
			}
		}
	}
	for i, root := range roots {
		if root < 0 || int(root) >= n {
			return nil, snapshot.Corruptf(sec, "root %d id %d out of range", i, root)
		}
		if ar.depth[root] != 0 {
			return nil, snapshot.Corruptf(sec, "root %d at depth %d", i, ar.depth[root])
		}
	}
	// Copy-on-write and point bookkeeping: a payload that aliases an
	// unflagged node would have updates write it once per referencing
	// tree, and a tree that miscounts its points would feed grow
	// partitions and posteriors the wrong data.
	if id := ar.unsharedAlias(roots); id >= 0 {
		return nil, snapshot.Corruptf(sec, "node %d is referenced more than once but not marked shared", id)
	}
	if slot, got := ar.miscountedTree(roots, npts); slot >= 0 {
		return nil, snapshot.Corruptf(sec, "particle %d's leaves hold %d point entries for %d points", slot, got, npts)
	}
	// lastLive sizes the arena reservation below; it never exceeds the
	// arena it was measured on.
	if lastLive < 0 || lastLive > n {
		return nil, snapshot.Corruptf(sec, "lastLive %d", lastLive)
	}

	// Feature bounds: one block per leaf, scanned from its points.
	leaves := 0
	for _, l := range ar.left {
		if l < 0 {
			leaves++
		}
	}
	if dim > budget/derivedPerDim(leaves, cfg.Particles) {
		return nil, snapshot.Corruptf(sec, "dimension %d for %d leaves and %d particles in a %d-byte payload", dim, leaves, cfg.Particles, len(payload))
	}
	ar.blk = make([]int32, n)
	ar.rlo = make([]float64, 0, slabBlocks(leaves)*dim)
	ar.rhi = make([]float64, 0, slabBlocks(leaves)*dim)
	for id := range ar.blk {
		ar.blk[id] = -1
		if ar.left[id] >= 0 {
			continue
		}
		ar.blk[id] = ar.newBlock()
		for _, pi := range ar.pts[id] {
			ar.foldRange(int32(id), points[pi].x)
		}
	}

	r := rng.New(0)
	r.SetState(st)

	tabs := newNigTables(cfg.A0, cfg.Kappa0, cfg.B0)
	tabs.extend(npts + 1)
	f := &Forest{
		cfg:      cfg,
		prior:    nigPrior{m0: cfg.M0, kappa0: cfg.Kappa0, a0: cfg.A0, b0: cfg.B0, tabs: tabs},
		lprior:   linPrior{m0: cfg.M0, kappa0: cfg.Kappa0, a0: cfg.A0, b0: cfg.B0, tabs: tabs},
		tabs:     tabs,
		dim:      dim,
		points:   points,
		xArena:   xArena,
		ar:       ar,
		roots:    roots,
		r:        r,
		lastLive: lastLive,
		logW:     make([]float64, cfg.Particles),
		augBuf:   make([]float64, linScratchLen(dim)),
	}
	f.scoreSlots = scoreSlotsFor(cfg.Particles, cfg.ScoreParticles)
	f.reserveArena()
	return f, nil
}
