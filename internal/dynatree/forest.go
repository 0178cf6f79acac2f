package dynatree

import (
	"fmt"
	"math"

	"alic/internal/rng"
	"alic/internal/stats"
)

// Config parameterises a dynamic-tree forest. The zero value is not
// usable; call DefaultConfig and override as needed.
type Config struct {
	// Particles is the particle-cloud size N (the paper uses 5,000).
	Particles int
	// ScoreParticles is the number of particles used when evaluating
	// acquisition scores (ALM/ALC). Scoring cost is linear in this
	// value; 0 means use every particle.
	ScoreParticles int
	// Alpha and Beta parameterise the CGM tree prior
	// p_split(node) = Alpha * (1 + depth)^(-Beta).
	Alpha, Beta float64
	// M0, Kappa0, A0, B0 are the NIG leaf prior parameters. A0 must be
	// greater than 1 so predictive variances exist for empty leaves.
	M0, Kappa0, A0, B0 float64
	// MinLeafForSplit is the minimum number of observations a leaf
	// needs before grow moves are proposed.
	MinLeafForSplit int
	// LeafModel selects constant (default) or linear leaves, matching
	// the two models of the R dynaTree package. ALM, ALC and
	// prediction all honour the configured model.
	LeafModel LeafModel
}

// DefaultConfig returns the configuration used by the experiments:
// weakly-informative NIG prior on standardised targets and the standard
// CGM prior parameters.
func DefaultConfig() Config {
	return Config{
		Particles:       1000,
		ScoreParticles:  100,
		Alpha:           0.95,
		Beta:            2,
		M0:              0,
		Kappa0:          0.1,
		A0:              3,
		B0:              2,
		MinLeafForSplit: 3,
	}
}

// CalibratePrior centres the NIG prior on the sample moments of ys so
// that the prior predictive roughly matches the data scale (empirical
// Bayes on the seed set). It leaves Kappa0 and A0 untouched.
func (c *Config) CalibratePrior(ys []float64) {
	if len(ys) == 0 {
		return
	}
	s := stats.Summarize(ys)
	c.M0 = s.Mean
	v := s.Variance
	if v <= 0 || len(ys) < 2 {
		v = 1
	}
	// Prior predictive variance = B0 (Kappa0+1)/(Kappa0 (A0-1)).
	// Choose B0 so that it equals the sample variance.
	c.B0 = v * c.Kappa0 * (c.A0 - 1) / (c.Kappa0 + 1)
	if c.B0 <= 0 {
		c.B0 = 1e-9
	}
}

func (c Config) validate() error {
	if c.Particles < 1 {
		return fmt.Errorf("dynatree: Particles must be >= 1, got %d", c.Particles)
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return fmt.Errorf("dynatree: Alpha must be in (0,1), got %v", c.Alpha)
	}
	if c.Beta < 0 {
		return fmt.Errorf("dynatree: Beta must be >= 0, got %v", c.Beta)
	}
	if c.Kappa0 <= 0 || c.B0 <= 0 {
		return fmt.Errorf("dynatree: Kappa0 and B0 must be positive")
	}
	if c.A0 <= 1 {
		return fmt.Errorf("dynatree: A0 must be > 1, got %v", c.A0)
	}
	if c.MinLeafForSplit < 2 {
		return fmt.Errorf("dynatree: MinLeafForSplit must be >= 2, got %d", c.MinLeafForSplit)
	}
	return nil
}

// Forest is a particle-filtered dynamic-tree regression model over a
// flat copy-on-write node arena: particles are root ids into one
// shared struct-of-arrays node store, resampling duplicates particles
// by sharing structure, and updates clone only the root-to-leaf path
// they rewrite. It is not safe for concurrent use: predictions fill
// lazily-cached linear-leaf posteriors, and the scoring entry points
// reuse forest-owned scratch.
type Forest struct {
	cfg    Config
	prior  nigPrior
	lprior linPrior
	dim    int
	points []point
	ar     nodes
	roots  []int32
	r      *rng.Stream

	// scoreSlots is the precomputed strided scoring subsample: the
	// particle slots every acquisition-scoring entry point folds over,
	// in slot order.
	scoreSlots []int32

	// lastLive is the arena size right after the last compaction; the
	// arena compacts when garbage (superseded path copies, dead
	// particles) outgrows live nodes.
	lastLive int

	pool [][]float64 // candidate rows bound by BindPool; nil when unbound

	// tabs memoises the integer-keyed transcendental terms of the NIG
	// closed forms, shared by both leaf priors; extended in Update
	// before the weight pass reads it. splitTab / logSplitTab /
	// log1mSplitTab memoise the per-depth CGM prior and its logs.
	tabs          *nigTables
	splitTab      []float64
	logSplitTab   []float64
	log1mSplitTab []float64

	// Scratch reused across updates and scoring calls.
	logW      []float64
	wBuf      []float64
	countsBuf []int
	outBuf    []int32
	srcBuf    []int32
	logwBuf   []float64
	movesBuf  []int
	growL     childScratch
	growR     childScratch
	augBuf    []float64
	sc        scoreScratch

	// Update-path scratch (see updateObs / propagateAll). chains[i] is
	// the root→leaf descent chain the weight pass records for slot i;
	// chainPerm maps post-resample slots to the pre-resample slot whose
	// chain (and tree) they inherited, nil for identity. prop holds the
	// move-weight phase's per-slot results; headBuf the dup-group owner
	// of each slot. xArena interns feature copies so Update allocates no
	// per-observation xcopy.
	chains    [][]int32
	chainPerm []int32
	prop      []propState
	headBuf   []int32
	isScore   []bool
	xArena    []float64

	// Compaction scratch: the previous generation's arena backing and
	// the live-node numbering, recycled so steady-state compactions
	// reallocate nothing.
	spare nodes
	live  liveOrder

	// Stay-commit memo, one generation per observation (see
	// makeWritable): when stayMark[id] == stayGen, a stay commit of the
	// current observation copied node id to stayCopy[id]. Indexed by the
	// ids of the arena as the observation found it.
	stayGen  uint32
	stayMark []uint32
	stayCopy []int32
}

// propState is the read-only move-weight computation for one particle
// slot, produced by the first phase of propagateAll and consumed by
// the commit phase. Slots that inherited the same tree from the
// resample share one propState (constant leaves only: linear payloads
// are freshly-built per-slot objects that must not alias across slots).
type propState struct {
	leaf, parent, sib int32
	canPrune          bool
	growEligible      bool
	sNew              suff
	merged            suff
	linNew            *linSuff
	mergedLin         *linSuff
	stayLW            float64
	pruneLW           float64
	footLW            float64 // parent-level footing added when prune is on the table
	splitDims         []int32
	splitLo           []float64
	splitHi           []float64
}

// --- leaf-model dispatch --------------------------------------------------

// nodeML returns the log marginal likelihood of a leaf's data under
// the configured leaf model.
func (f *Forest) nodeML(s suff, lin *linSuff) float64 {
	if f.cfg.LeafModel == LinearLeaf {
		return f.lprior.logMarginal(lin)
	}
	return f.prior.logMarginal(s)
}

// leafPredict returns the posterior-predictive location and variance
// at x for leaf id. xa is caller-owned scratch of length dim+1 for the
// linear model's augmented input (may be nil with constant leaves).
func (f *Forest) leafPredict(id int32, x, xa []float64) (loc, variance float64) {
	if f.cfg.LeafModel == LinearLeaf {
		lin := f.ar.lin[id]
		_, loc, _ = f.lprior.predictive(lin, x, xa)
		return loc, f.lprior.predVariance(lin, x, xa)
	}
	s := f.ar.s[id]
	_, loc, _ = f.prior.predictive(s)
	return loc, f.prior.predVariance(s)
}

// leafLogPredDensity returns the log predictive density of (x, y) in
// leaf id; xa as for leafPredict.
func (f *Forest) leafLogPredDensity(id int32, x []float64, y float64, xa []float64) float64 {
	if f.cfg.LeafModel == LinearLeaf {
		return f.lprior.logPredictiveDensity(f.ar.lin[id], x, y, xa)
	}
	return f.prior.logPredictiveDensity(f.ar.s[id], y)
}

// attachLin builds the linear sufficient statistics of a proposed grow
// child from its point set.
func (f *Forest) attachLin(c *childScratch) {
	lin := newLinSuff(f.dim)
	for _, idx := range c.pts {
		lin.add(f.points[idx].x, f.points[idx].y)
	}
	c.lin = lin
}

// New creates a forest over inputs of the given dimension. The stream
// drives all stochastic behaviour (resampling and tree moves).
func New(cfg Config, dim int, r *rng.Stream) (*Forest, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if dim < 1 {
		return nil, fmt.Errorf("dynatree: dimension must be >= 1, got %d", dim)
	}
	if r == nil {
		return nil, fmt.Errorf("dynatree: nil rng stream")
	}
	tabs := newNigTables(cfg.A0, cfg.Kappa0, cfg.B0)
	tabs.extend(1)
	f := &Forest{
		cfg:    cfg,
		prior:  nigPrior{m0: cfg.M0, kappa0: cfg.Kappa0, a0: cfg.A0, b0: cfg.B0, tabs: tabs},
		lprior: linPrior{m0: cfg.M0, kappa0: cfg.Kappa0, a0: cfg.A0, b0: cfg.B0, tabs: tabs},
		tabs:   tabs,
		dim:    dim,
		roots:  make([]int32, cfg.Particles),
		r:      r,
		logW:   make([]float64, cfg.Particles),
		augBuf: make([]float64, linScratchLen(dim)),
	}
	f.ar.featDim = dim
	for i := range f.roots {
		f.roots[i] = f.ar.newLeaf(0)
		if cfg.LeafModel == LinearLeaf {
			f.ar.lin[f.roots[i]] = newLinSuff(dim)
		}
	}
	f.scoreSlots = scoreSlotsFor(cfg.Particles, cfg.ScoreParticles)
	f.lastLive = f.ar.len()
	f.reserveArena()
	return f, nil
}

// scoreSlotsFor returns the strided scoring-subsample slot indices
// (all slots when k is 0 or at least the particle count).
func scoreSlotsFor(particles, k int) []int32 {
	if k <= 0 || k >= particles {
		out := make([]int32, particles)
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	out := make([]int32, 0, k)
	stride := float64(particles) / float64(k)
	for i := 0; i < k; i++ {
		out = append(out, int32(int(float64(i)*stride)))
	}
	return out
}

// scoringParticles returns the particle slots used for acquisition
// scoring (a strided subsample when ScoreParticles < Particles).
func (f *Forest) scoringParticles() []int32 { return f.scoreSlots }

// N returns the number of observations absorbed so far.
func (f *Forest) N() int { return len(f.points) }

// pSplit is the CGM split prior at the given depth, memoised per
// depth together with the log terms propagate folds into every move
// weight (table entries are the direct expressions' exact bits).
func (f *Forest) pSplit(depth int) float64 {
	f.ensureSplitTab(depth)
	return f.splitTab[depth]
}

// logSplit is ln pSplit(depth).
func (f *Forest) logSplit(depth int) float64 {
	f.ensureSplitTab(depth)
	return f.logSplitTab[depth]
}

// log1mSplit is ln(1 - pSplit(depth)).
func (f *Forest) log1mSplit(depth int) float64 {
	f.ensureSplitTab(depth)
	return f.log1mSplitTab[depth]
}

func (f *Forest) ensureSplitTab(depth int) {
	for d := len(f.splitTab); d <= depth; d++ {
		p := f.cfg.Alpha * math.Pow(1+float64(d), -f.cfg.Beta)
		f.splitTab = append(f.splitTab, p)
		f.logSplitTab = append(f.logSplitTab, math.Log(p))
		f.log1mSplitTab = append(f.log1mSplitTab, math.Log1p(-p))
	}
}

// leafOf descends from root (any node id, in fact) to the leaf
// containing x.
func (f *Forest) leafOf(root int32, x []float64) int32 {
	dim, cut, left, right := f.ar.dim, f.ar.cut, f.ar.left, f.ar.right
	cur := root
	for left[cur] >= 0 {
		if x[dim[cur]] < cut[cur] {
			cur = left[cur]
		} else {
			cur = right[cur]
		}
	}
	return cur
}

// leafOfBatch routes many rows through the tree at nd in one partition
// descent: idx lists row numbers into xs, and out[r] receives the leaf
// containing xs[r] for every listed r. Each tree node is visited once
// with the contiguous block of rows whose path reaches it, so node
// fields are read once per node instead of once per (row, level) as
// repeated leafOf walks would — the block's feature rows stay hot
// while the node strides the arena. The comparisons are leafOf's
// exactly, so out[r] == leafOf(nd, xs[r]) bit for bit; idx is consumed
// as scratch (reordered freely), tmp needs len(idx) capacity.
//
//alic:noalloc
func (f *Forest) leafOfBatch(nd int32, xs [][]float64, idx, tmp, out []int32) {
	ar := &f.ar
	dim, cut, left, right := ar.dim, ar.cut, ar.left, ar.right
	for {
		if left[nd] < 0 {
			for _, r := range idx {
				out[r] = nd
			}
			return
		}
		// Small blocks descend row-by-row: below this size the partition
		// pass costs more than the walks it saves.
		if len(idx) <= 16 {
			for _, r := range idx {
				out[r] = f.leafOf(nd, xs[r])
			}
			return
		}
		d, c := dim[nd], cut[nd]
		nl, nr := 0, 0
		for _, r := range idx {
			if xs[r][d] < c {
				idx[nl] = r
				nl++
			} else {
				tmp[nr] = r
				nr++
			}
		}
		copy(idx[nl:], tmp[:nr])
		if nr == 0 {
			nd = left[nd]
			continue
		}
		if nl > 0 {
			f.leafOfBatch(left[nd], xs, idx[:nl], tmp, out)
		}
		nd = right[nd]
		idx = idx[nl:]
	}
}

// Update absorbs one observation: resample particles by the predictive
// density of (x, y), then apply a stochastic stay/prune/grow move to
// the leaf containing x in each particle and insert the point.
func (f *Forest) Update(x []float64, y float64) {
	if math.IsNaN(y) || math.IsInf(y, 0) {
		panic("dynatree: non-finite target")
	}
	idx := f.appendPoint(x, y)
	// Cover every leaf count the weight pass, move proposals and prune
	// merges can reach this update.
	f.tabs.extend(len(f.points) + 1)
	f.updateObs(idx, f.points[idx].x, y, false)
}

// UpdateRound absorbs one acquisition round's observations in a
// single batched call: targets are validated batch-wide up front,
// feature copies are interned and appended once, and the NIG tables
// are extended once; each observation then reweights, resamples and
// propagates in order, so the rng draw sequence and every float
// accumulation chain are bit-identical to calling Update per
// observation (pinned by TestUpdateRoundMatchesSerialUpdates).
//
// When preds is non-nil it must have len(xs): preds[k] receives the
// scoring-subsample predictive mean at xs[k] in the model state just
// before (xs[k], ys[k]) is absorbed — bit-identical to calling
// PredictMeanFast(xs[k]) then Update(xs[k], ys[k]) per observation,
// but fused into the weight pass's descent so callers pay no second
// walk per particle.
func (f *Forest) UpdateRound(xs [][]float64, ys []float64, preds []float64) {
	if len(xs) != len(ys) {
		panic("dynatree: UpdateRound length mismatch")
	}
	if preds != nil && len(preds) != len(xs) {
		panic("dynatree: UpdateRound preds length mismatch")
	}
	for _, y := range ys {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			panic("dynatree: non-finite target")
		}
	}
	base := len(f.points)
	for k := range xs {
		f.appendPoint(xs[k], ys[k])
	}
	// One table extension covers the whole round: entries are pure
	// functions of the integer key, so extending earlier than the
	// serial loop would have is value-identical.
	f.tabs.extend(len(f.points) + 1)
	for k := range xs {
		idx := base + k
		pred := f.updateObs(idx, f.points[idx].x, ys[k], preds != nil)
		if preds != nil {
			preds[k] = pred
		}
	}
}

// appendPoint interns a copy of x in the forest-owned feature arena
// (amortising away the per-observation xcopy allocation) and appends
// the observation, returning its index.
func (f *Forest) appendPoint(x []float64, y float64) int {
	n := len(f.xArena)
	f.xArena = append(f.xArena, x...)
	xc := f.xArena[n : n+len(x) : n+len(x)]
	f.points = append(f.points, point{x: xc, y: y})
	return len(f.points) - 1
}

// updateObs runs one observation through the update pipeline: weight
// pass over the fused root→leaf descents, systematic resample,
// then the two-phase propagate. x must be the interned f.points[idx].x
// (propagation references it beyond this call via the point index).
// When wantPred is true it returns the scoring-subsample predictive
// mean at x in the pre-update state, fused into the weight pass; NaN
// otherwise.
func (f *Forest) updateObs(idx int, x []float64, y float64, wantPred bool) float64 {
	pred := math.NaN()
	f.ensurePropScratch()
	// Step 1: importance weights = posterior predictive density at the
	// new observation. The descent is recorded per slot and reused by
	// propagate (fused descent: one walk, not two). The scoring slots
	// ascend, so the fused prediction sums in PredictMeanFast's order.
	if idx >= 1 { // with a single point all weights are equal
		sum := 0.0
		for i := range f.roots {
			leaf := f.descendRecord(i, x)
			f.logW[i] = f.leafLogPredDensity(leaf, x, y, f.augBuf)
			if wantPred && f.isScore[i] {
				loc, _ := f.leafPredict(leaf, x, f.augBuf)
				sum += loc
			}
		}
		if wantPred {
			pred = sum / float64(len(f.scoreSlots))
		}
		f.chainPerm = f.resample()
	} else {
		if wantPred {
			pred = f.PredictMeanFast(x)
		}
		// No weight pass to fuse with: record the descents here so
		// propagate never walks a tree itself. Before the first
		// observation every tree is a single root leaf, so this is
		// O(particles).
		for i := range f.roots {
			f.descendRecord(i, x)
		}
		f.chainPerm = nil
	}

	// Step 2: propagate every particle with a local tree move, then
	// insert the point.
	f.propagateAll(idx, x, y)
	f.maybeCompact()
	return pred
}

// descendRecord descends slot i's tree to the leaf containing x,
// recording the root→leaf chain (leaf last) in f.chains[i], and
// returns the leaf. Steady-state allocation-free: the chain appends into
// the slot's retained scratch, which stops growing once it has seen
// the cloud's deepest tree.
//
//alic:noalloc
func (f *Forest) descendRecord(i int, x []float64) int32 {
	dim, cut, left, right := f.ar.dim, f.ar.cut, f.ar.left, f.ar.right
	chain := f.chains[i][:0]
	cur := f.roots[i]
	for left[cur] >= 0 {
		chain = append(chain, cur)
		if x[dim[cur]] < cut[cur] {
			cur = left[cur]
		} else {
			cur = right[cur]
		}
	}
	chain = append(chain, cur)
	f.chains[i] = chain
	return cur
}

// ensurePropScratch sizes the per-slot update scratch once per
// particle-cloud size (fixed after New).
func (f *Forest) ensurePropScratch() {
	n := len(f.roots)
	if len(f.chains) == n {
		return
	}
	f.chains = make([][]int32, n)
	f.prop = make([]propState, n)
	for i := range f.prop {
		f.prop[i].splitDims = make([]int32, 0, f.dim)
		f.prop[i].splitLo = make([]float64, f.dim)
		f.prop[i].splitHi = make([]float64, f.dim)
	}
	f.headBuf = make([]int32, n)
	f.isScore = make([]bool, n)
	for _, s := range f.scoreSlots {
		f.isScore[s] = true
	}
}

// resample replaces the particle cloud with a systematic resample
// proportional to exp(logW). Duplicated particles share their tree
// (the copy-on-write propagate clones only written paths), so a
// resample is O(N) regardless of tree sizes. Returns the slot
// permutation (new slot → surviving source slot, non-decreasing), or
// nil when the cloud is unchanged — degenerate weights, or a resample
// in which every particle survived exactly once (the permutation is
// the identity, so root copying and shared marking are no-ops and
// are skipped).
func (f *Forest) resample() []int32 {
	n := len(f.roots)
	maxW := math.Inf(-1)
	for _, lw := range f.logW {
		if lw > maxW {
			maxW = lw
		}
	}
	if math.IsInf(maxW, -1) || math.IsNaN(maxW) {
		return nil // degenerate weights: keep the cloud as-is
	}
	if cap(f.wBuf) < n {
		f.wBuf = make([]float64, n)
	}
	w := f.wBuf[:n]
	total := 0.0
	for i, lw := range f.logW {
		w[i] = math.Exp(lw - maxW)
		total += w[i]
	}
	if total <= 0 || math.IsNaN(total) {
		return nil
	}
	// Systematic resampling.
	u := f.r.Float64() / float64(n)
	cum := 0.0
	j := 0
	if cap(f.countsBuf) < n {
		f.countsBuf = make([]int, n)
	}
	counts := f.countsBuf[:n]
	for i := range counts {
		counts[i] = 0
	}
	for i := 0; i < n; i++ {
		target := (u + float64(i)/float64(n)) * total
		for cum+w[j] < target && j < n-1 {
			cum += w[j]
			j++
		}
		counts[j]++
	}
	identity := true
	for _, c := range counts {
		if c != 1 {
			identity = false
			break
		}
	}
	if identity {
		return nil
	}
	out := f.outBuf[:0]
	src := f.srcBuf[:0]
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if c > 1 {
			f.ar.shared[f.roots[i]] = true
		}
		for k := 0; k < c; k++ {
			out = append(out, f.roots[i])
			src = append(src, int32(i))
		}
	}
	copy(f.roots, out)
	f.outBuf, f.srcBuf = out, src
	return src
}

// moveStay etc. label the particle moves for diagnostics.
const (
	moveStay = iota
	movePrune
	moveGrow
)

// propagateAll applies one stochastic stay/prune/grow move per
// particle for observation idx, in two phases. Phase A computes every
// slot's move weights read-only — leaf statistics with the point
// folded in, prune merges, grow eligibility and cached split ranges —
// into per-slot propState scratch; it consumes no randomness. Phase B
// walks the slots in order, drawing the grow proposal and the move
// choice from the single rng stream and committing arena mutations.
// Move weights never depend on earlier slots' commits (a slot's tree
// nodes are never mutated in place by another slot: in-place writes
// require exclusive ownership), which is what lets phase A run
// first.
//
// Slots that inherited the same tree from the resample are contiguous
// (the source permutation is non-decreasing) and share one phase-A
// computation via headBuf — constant leaves only, since linear
// payloads are per-slot objects that must not alias.
func (f *Forest) propagateAll(idx int, x []float64, y float64) {
	ar := &f.ar
	n := len(f.roots)
	perm := f.chainPerm
	// Every depth phase A can read must be memoised first: chain ends
	// bound leaf depth, parents and siblings are shallower,
	// grow children one deeper.
	maxD := 0
	for i := 0; i < n; i++ {
		ci := i
		if perm != nil {
			ci = int(perm[i])
		}
		chain := f.chains[ci]
		if d := int(ar.depth[chain[len(chain)-1]]); d > maxD {
			maxD = d
		}
	}
	f.ensureSplitTab(maxD + 1)

	head := f.headBuf[:n]
	share := f.cfg.LeafModel != LinearLeaf && perm != nil
	for i := 0; i < n; i++ {
		if share && i > 0 && perm[i] == perm[i-1] {
			head[i] = head[i-1]
		} else {
			head[i] = int32(i)
		}
	}

	// Phase A: read-only move weights.
	for i := 0; i < n; i++ {
		if int(head[i]) == i {
			f.propPrepare(i, x, y)
		}
	}

	// Phase B: draws and commits, in slot order.
	f.nextStayMemo(ar.len())
	for i := 0; i < n; i++ {
		f.propCommit(i, int(head[i]), idx, x, y)
	}
}

// propPrepare computes slot i's move weights into f.prop[i]. It draws
// no randomness and leaves the arena's trees and statistics as they
// are (it may fill lazily-cached linear-leaf posteriors); its other
// writes are slot-indexed scratch.
func (f *Forest) propPrepare(i int, x []float64, y float64) {
	ar := &f.ar
	p := &f.prop[i]
	ci := i
	if f.chainPerm != nil {
		ci = int(f.chainPerm[i])
	}
	chain := f.chains[ci]
	leaf := chain[len(chain)-1]
	parent := int32(-1)
	if len(chain) > 1 {
		parent = chain[len(chain)-2]
	}
	p.leaf, p.parent = leaf, parent

	// Sufficient statistics of the leaf with the new point included.
	sNew := ar.s[leaf]
	sNew.add(y)
	p.sNew = sNew
	var linNew *linSuff
	if f.cfg.LeafModel == LinearLeaf {
		linNew = ar.lin[leaf].clone()
		linNew.add(x, y)
	}
	p.linNew = linNew

	// Stay: leaf keeps its data plus the new point.
	p.stayLW = f.log1mSplitTab[ar.depth[leaf]] + f.nodeML(sNew, linNew)

	// Prune: allowed when the leaf has a parent whose other child is
	// also a leaf; the parent collapses into a single leaf.
	p.canPrune = false
	p.sib = -1
	p.mergedLin = nil
	if parent >= 0 {
		sib := ar.left[parent]
		if sib == leaf {
			sib = ar.right[parent]
		}
		if ar.left[sib] < 0 {
			p.canPrune = true
			p.sib = sib
			merged := sNew.merge(ar.s[sib])
			p.merged = merged
			if f.cfg.LeafModel == LinearLeaf {
				p.mergedLin = linNew.merge(ar.lin[sib])
			}
			// Compare subtrees rooted at the parent. The pruned tree
			// contributes (1-p_split(parent)) * ML(merged); the kept
			// tree contributes p_split(parent) * (1-p_split(leaf)) *
			// ML(leaf+new) * (1-p_split(sib)) * ML(sib). The stay
			// weight above lacks the parent-level factors, so phase B
			// adds footLW to put all three moves on the parent's
			// footing.
			p.footLW = f.logSplitTab[ar.depth[parent]] +
				f.log1mSplitTab[ar.depth[sib]] + f.nodeML(ar.s[sib], ar.lin[sib])
			p.pruneLW = f.log1mSplitTab[ar.depth[parent]] + f.nodeML(merged, p.mergedLin)
		}
	}

	// Grow eligibility and split ranges: the cached per-leaf bounds
	// widened by x reproduce proposeSplit's point scan bit-for-bit
	// (min/max are order-independent selections), at O(featDim) instead
	// of O(points × featDim). Splittable dimensions are collected in
	// ascending order, matching the scan.
	p.growEligible = false
	if ar.s[leaf].n+1 >= f.cfg.MinLeafForSplit {
		alo, ahi := ar.rangeLo(leaf), ar.rangeHi(leaf)
		lo, hi := p.splitLo, p.splitHi
		dims := p.splitDims[:0]
		for j := 0; j < f.dim; j++ {
			l, h := alo[j], ahi[j]
			if v := x[j]; v < l {
				l = v
			}
			if v := x[j]; v > h {
				h = v
			}
			lo[j], hi[j] = l, h
			if h > l {
				dims = append(dims, int32(j))
			}
		}
		p.splitDims = dims
		p.growEligible = len(dims) > 0
	}
}

// propCommit assembles slot's move distribution from the prepared
// phase-A state at h (its dup-group head), draws the grow proposal and
// move choice from the single rng stream, and commits the chosen move
// — the write side of the old serial propagate. A stay whose path an
// earlier slot's stay already copied links that copy and writes
// nothing (see makeWritable).
func (f *Forest) propCommit(slot, h, idx int, x []float64, y float64) {
	ar := &f.ar
	p := &f.prop[h]
	ci := slot
	if f.chainPerm != nil {
		ci = int(f.chainPerm[slot])
	}
	chain := f.chains[ci]
	leaf, sib := p.leaf, p.sib

	logw := f.logwBuf[:0]
	moves := f.movesBuf[:0]
	logw = append(logw, p.stayLW)
	moves = append(moves, moveStay)
	if p.canPrune {
		logw[0] += p.footLW
		logw = append(logw, p.pruneLW)
		moves = append(moves, movePrune)
	}

	// Grow: propose one split of the leaf (with the new point included)
	// when it holds enough observations. Constant leaves weigh the
	// proposal by the children's statistics alone, counted without
	// building point lists; linear leaves partition into scratch
	// children to build theirs. Either way arena nodes (and constant
	// children's lists) are materialised only if the grow move is
	// actually chosen, which is rare.
	var growDim int
	var growCut float64
	if p.growEligible {
		if dim, cut, ok := proposeSplitRanged(p.splitDims, p.splitLo, p.splitHi, f.r); ok {
			if f.cfg.LeafModel == LinearLeaf {
				partitionLeaf(ar.pts[leaf], idx, f.points, dim, cut, &f.growL, &f.growR)
				f.attachLin(&f.growL)
				f.attachLin(&f.growR)
			} else {
				f.growL.s, f.growR.s = splitSuff(ar.pts[leaf], idx, f.points, dim, cut)
			}
			childDepth := int(ar.depth[leaf]) + 1
			growLW := f.logSplit(int(ar.depth[leaf])) +
				f.log1mSplit(childDepth) + f.nodeML(f.growL.s, f.growL.lin) +
				f.log1mSplit(childDepth) + f.nodeML(f.growR.s, f.growR.lin)
			// Match the parent-level footing if prune is on the table.
			if p.canPrune {
				growLW += p.footLW
			}
			logw = append(logw, growLW)
			moves = append(moves, moveGrow)
			growDim, growCut = dim, cut
		}
	}
	f.logwBuf, f.movesBuf = logw, moves

	move := moveStay
	if len(moves) > 1 {
		move = moves[sampleLog(logw, f.r)]
	}

	switch move {
	case moveStay:
		target, fresh := f.makeWritable(slot, chain, true)
		if !fresh {
			break // an earlier slot's stay already wrote this leaf
		}
		f.ar.pts[target] = append(f.ar.pts[target], idx)
		f.ar.s[target] = p.sNew
		f.ar.lin[target] = p.linNew
		f.ar.foldRange(target, x)

	case movePrune:
		// Parent becomes a leaf holding both children's points plus the
		// new one.
		pn, _ := f.makeWritable(slot, chain[:len(chain)-1], false)
		pts := make([]int, 0, len(f.ar.pts[leaf])+len(f.ar.pts[sib])+1)
		pts = append(pts, f.ar.pts[leaf]...)
		pts = append(pts, f.ar.pts[sib]...)
		pts = append(pts, idx)
		f.ar.mergeRange(pn, leaf, sib)
		f.ar.foldRange(pn, x)
		f.ar.left[pn], f.ar.right[pn] = -1, -1
		f.ar.pts[pn] = pts
		f.ar.s[pn] = p.merged
		f.ar.lin[pn] = p.mergedLin

	case moveGrow:
		if f.cfg.LeafModel != LinearLeaf {
			// Same pass, same order: the statistics come out bit-identical
			// to the ones the move was weighed by.
			partitionLeaf(ar.pts[leaf], idx, f.points, growDim, growCut, &f.growL, &f.growR)
		}
		target, _ := f.makeWritable(slot, chain, false)
		l := f.materializeChild(&f.growL, f.ar.depth[target]+1)
		r := f.materializeChild(&f.growR, f.ar.depth[target]+1)
		f.ar.dim[target] = int32(growDim)
		f.ar.cut[target] = growCut
		f.ar.left[target], f.ar.right[target] = l, r
		f.ar.blk[target] = -1 // a target written in place drops its block
		f.ar.pts[target] = nil
		f.ar.s[target] = suff{}
		f.ar.lin[target] = nil
	}
}

// materializeChild turns a grow-proposal scratch child into an arena
// leaf, adopting the proposal's freshly-built linear statistics and
// computing the child's feature bounds from its point set (accepted
// grows only, so rejected proposals never pay the scan).
func (f *Forest) materializeChild(c *childScratch, depth int32) int32 {
	id := f.ar.newLeaf(depth)
	f.ar.pts[id] = append([]int(nil), c.pts...)
	f.ar.s[id] = c.s
	f.ar.lin[id] = c.lin
	c.lin = nil
	for _, idx := range c.pts {
		f.ar.foldRange(id, f.points[idx].x)
	}
	return id
}

// makeWritable returns a writable id for the last node of chain
// (chain runs root → … → write target). Nodes from the first shared
// one onward are replaced with fresh copies relinked top-down; the
// off-path child of every cloned interior node gains a second
// referencing tree and is marked shared. With no shared node on the
// chain this is a no-op returning the target itself — the common case
// for a particle that survived resampling uniquely.
//
// A stay commit (stay true) writes the same bytes into the target
// whichever slot makes it: the leaf a chain reaches is a function of
// its nodes and x, and the stay payload of the observation and that
// leaf. So stay commits share their copies through the per-observation
// memo. Each node a stay commit copies is recorded; a later stay whose
// chain reaches a recorded node links that copy in place of cloning,
// marks it shared, and gets fresh == false: the target already holds
// the stay's payload and must not be written. Duplicates left by a
// resample then clone their shared path once per observation instead
// of once per slot. Grow and prune targets are slot-specific and always
// copy. Node ids are observationally invisible (see maybeCompact), so
// the memo changes arena size and sharing, never results.
func (f *Forest) makeWritable(slot int, chain []int32, stay bool) (target int32, fresh bool) {
	ar := &f.ar
	first := -1
	for i, id := range chain {
		if ar.shared[id] {
			first = i
			break
		}
	}
	if first < 0 {
		return chain[len(chain)-1], true
	}
	prev := int32(-1)
	if first > 0 {
		prev = chain[first-1]
	}
	for i := first; i < len(chain); i++ {
		orig := chain[i]
		memo := stay && f.stayMark[orig] == f.stayGen
		var cp int32
		if memo {
			cp = f.stayCopy[orig]
			ar.shared[cp] = true
		} else {
			cp = ar.appendFrom(ar, orig, stay)
			if stay {
				f.stayMark[orig], f.stayCopy[orig] = f.stayGen, cp
			}
			if i < len(chain)-1 {
				// Both the original and the copy now reference the
				// off-path child.
				if ar.left[orig] == chain[i+1] {
					ar.shared[ar.right[orig]] = true
				} else {
					ar.shared[ar.left[orig]] = true
				}
			}
		}
		switch {
		case prev < 0:
			f.roots[slot] = cp
		case ar.left[prev] == orig:
			ar.left[prev] = cp
		default:
			ar.right[prev] = cp
		}
		if memo {
			// The copy's subtree already holds the memoised copies of
			// the rest of the chain, the target's last.
			return f.stayCopy[chain[len(chain)-1]], false
		}
		prev = cp
	}
	return prev, true
}

// nextStayMemo begins the stay-commit memo of a new observation over
// an arena of n nodes. The tables grow geometrically, like
// scoreScratch's, and the generation stamp invalidates every entry
// without clearing them.
func (f *Forest) nextStayMemo(n int) {
	if len(f.stayMark) < n {
		n = max(n, 2*len(f.stayMark))
		f.stayMark = make([]uint32, n)
		f.stayCopy = make([]int32, n)
	}
	f.stayGen++
	if f.stayGen == 0 { // uint32 wraparound: stale stamps could collide
		clear(f.stayMark)
		f.stayGen = 1
	}
}

// maybeCompact rebuilds the arena when superseded path copies and
// dead particles outgrow the live trees. Compaction preserves
// structural sharing (and recomputes exact shared flags) and renames
// every node id. Renaming is observationally invisible (descents
// follow structure, scoring kernels use ids only to group identical
// leaves, no randomness is consumed), so the threshold is a pure
// space/time knob.
func (f *Forest) maybeCompact() {
	if f.ar.len() > f.compactAt() {
		f.compact()
	}
}

// compactAt is the arena size that triggers the next compaction: about
// twice the live set. A lower trigger runs more compactions, each
// copying only the live nodes, and shrinks every arena field with it,
// because reserveArena reserves out to the trigger. Nine cli-tune
// learn loops (mm, gemver and dgemv3 at seeds 1-3, 400 particles, one
// worker, stay commits appending in place; about 1,330 live nodes at an
// average compaction) allocated:
//
//	trigger            compactions  learn-loop allocation
//	8*live + 1024      121          385 MB
//	4*live + 1024      235          299 MB
//	3*live + 1024      317          267 MB
//	2*live + 1024      474          236 MB
//
// with compaction time unchanged (150-250 ms in total for every row,
// within run-to-run noise): the larger triggers spend theirs zeroing
// larger reservations.
func (f *Forest) compactAt() int {
	return 2*f.lastLive + 1024
}

// compact rebuilds the arena as the live trees in canonical order
// (liveOrder), the layout Snapshot encodes. The bounds slabs are
// rebuilt with the live leaves' blocks only, in the same order.
func (f *Forest) compact() {
	old := f.ar
	// The previous generation's backing arrays (retired by the last
	// compaction) become this compaction's target arena, and the
	// numbering reuses its buffers, so steady-state compactions
	// allocate only when the live set outgrows every earlier
	// generation.
	lo := &f.live
	lo.number(&old, f.roots)
	na := f.spare
	na.truncate(old.featDim)
	for nid, id := range lo.order {
		na.appendFrom(&old, id, true)
		na.left[nid] = lo.child(old.left[id])
		na.right[nid] = lo.child(old.right[id])
		na.shared[nid] = lo.shared[nid]
	}
	copy(f.roots, lo.roots)
	f.ar = na
	// Retire the old arena as the next compaction's target. Its point
	// lists and linear payloads are shared with the live arena; clear
	// the retired slice elements so the only references left are the
	// live ones.
	for i := range old.pts {
		old.pts[i] = nil
	}
	for i := range old.lin {
		old.lin[i] = nil
	}
	f.spare = old
	f.lastLive = na.len()
	f.reserveArena()
}

// reserveArena sizes the arena for every append until the next
// compaction: out to the compaction trigger plus one update's
// worst-case growth, because maybeCompact runs only after an update
// and the update that crosses the trigger still appends. Per particle
// an update appends at most a root-to-leaf path copy plus two grow
// children, depth+3 nodes at the deepest leaf. Trees deepen between
// compactions, so the headroom is measured, not guaranteed: an arena
// that outgrows it falls back to append growth. The headroom is capped
// at the trigger itself, so a restored payload with crafted depths
// cannot size a reservation beyond twice what its arena justifies. At
// the 2x trigger the cap is what binds, and it still covers the
// crossing update: over the nine learn loops compactAt describes, that
// update overshot the trigger by at most 0.55 of it (1,402 nodes), and
// no arena field grew between compactions in any of their 3,600
// updates. Halving the cap would leave no margin over that overshoot.
//
// The bounds slabs hold leaves' blocks only, so they are sized from
// the live leaves (the blocks compaction kept), not from the node
// reservation: a stay's path copy adds one block however deep its
// leaf, a grow two and a prune one, and at those loops' compactions
// leaves were as few as a fifth of the live nodes. Their blocks at the
// trigger reached at most 1.05 x (2*leaves + 1024), and the nine loops
// (278.7 MB when every node carried a block) allocated:
//
//	slab reservation              learn-loop allocation
//	(2*leaves + 1024)             219.6 MB, slabs grew in 3 updates
//	(2*leaves + 1024) * 9/8       221.0 MB
//	(2*leaves + 1024) * 5/4       223.1 MB
//	(2*leaves + 1024) * 3/2       228.0 MB
//	(2*leaves + 1024) * 2         237.4 MB
//	2*leaves + 1024 + 3*particles 229.4 MB
//
// 9/8 and 5/4 still grew a slab in
// TestCompactionTriggerUpdateAppendsInPlace's first cycle, where every
// tree starts as a root leaf and nearly every appended node is a leaf;
// 3/2 covers it.
func (f *Forest) reserveArena() {
	maxD := int32(0)
	for _, d := range f.ar.depth {
		maxD = max(maxD, d)
	}
	at := f.compactAt()
	f.ar.reserve(at+min(len(f.roots)*(int(maxD)+3), at), slabBlocks(f.ar.blocks()))
}

// slabBlocks is the bounds slab reservation, in blocks, for an arena
// holding leaves blocks (see reserveArena). Restore checks a payload's
// dim against it before anything is sized by dim.
func slabBlocks(leaves int) int { return (2*leaves + 1024) * 3 / 2 }

// sampleLog samples an index proportionally to exp(logw).
func sampleLog(logw []float64, r *rng.Stream) int {
	maxW := math.Inf(-1)
	for _, lw := range logw {
		if lw > maxW {
			maxW = lw
		}
	}
	var wArr [4]float64
	w := wArr[:0]
	if len(logw) > len(wArr) {
		w = make([]float64, 0, len(logw))
	}
	total := 0.0
	for _, lw := range logw {
		wi := math.Exp(lw - maxW)
		w = append(w, wi)
		total += wi
	}
	if total <= 0 || math.IsNaN(total) {
		return 0
	}
	u := r.Float64() * total
	acc := 0.0
	for i, wi := range w {
		acc += wi
		if u < acc {
			return i
		}
	}
	return len(w) - 1
}

// Predict returns the posterior-predictive mean and variance at x,
// aggregated over particles by the law of total variance.
func (f *Forest) Predict(x []float64) (mean, variance float64) {
	n := len(f.roots)
	sumM, sumV, sumM2 := 0.0, 0.0, 0.0
	for _, root := range f.roots {
		leaf := f.leafOf(root, x)
		loc, v := f.leafPredict(leaf, x, f.augBuf)
		sumM += loc
		sumM2 += loc * loc
		sumV += v
	}
	mean = sumM / float64(n)
	variance = sumV/float64(n) + sumM2/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// PredictMean returns only the posterior-predictive mean at x.
func (f *Forest) PredictMean(x []float64) float64 {
	sum := 0.0
	for _, root := range f.roots {
		leaf := f.leafOf(root, x)
		loc, _ := f.leafPredict(leaf, x, f.augBuf)
		sum += loc
	}
	return sum / float64(len(f.roots))
}

// PredictMeanFast returns the posterior-predictive mean at x using the
// scoring subsample of particles. It trades a little Monte Carlo
// accuracy for a large speedup when evaluating learning curves over
// thousands of test points, and allocates nothing in steady state
// (pinned by a regression test).
//
//alic:noalloc
func (f *Forest) PredictMeanFast(x []float64) float64 {
	sum := 0.0
	for _, slot := range f.scoreSlots {
		leaf := f.leafOf(f.roots[slot], x)
		loc, _ := f.leafPredict(leaf, x, f.augBuf)
		sum += loc
	}
	return sum / float64(len(f.scoreSlots))
}

// Stats reports diagnostic aggregates over the particle cloud.
type Stats struct {
	Points    int
	Particles int
	AvgLeaves float64
	AvgNodes  float64
	MaxDepth  int
}

// Stats returns diagnostics about the current particle cloud.
func (f *Forest) Stats() Stats {
	st := Stats{Points: len(f.points), Particles: len(f.roots)}
	for _, root := range f.roots {
		nodes, leaves, depth := f.treeShape(root)
		st.AvgNodes += float64(nodes)
		st.AvgLeaves += float64(leaves)
		if depth > st.MaxDepth {
			st.MaxDepth = depth
		}
	}
	st.AvgNodes /= float64(len(f.roots))
	st.AvgLeaves /= float64(len(f.roots))
	return st
}

// treeShape returns the node count, leaf count and maximum leaf depth
// of the tree rooted at root (shared subtrees count once per tree,
// matching the old per-particle deep-copy semantics).
func (f *Forest) treeShape(root int32) (nodes, leaves, maxDepth int) {
	var walk func(id int32)
	walk = func(id int32) {
		nodes++
		if f.ar.left[id] < 0 {
			leaves++
			if d := int(f.ar.depth[id]); d > maxDepth {
				maxDepth = d
			}
			return
		}
		walk(f.ar.left[id])
		walk(f.ar.right[id])
	}
	walk(root)
	return nodes, leaves, maxDepth
}
