package dynatree

import (
	"math"

	"alic/internal/linalg"
)

// This file holds the batched scoring entry points and the ALC
// kernel. ALCScores resolves (scoring particle, input) → leaf id into
// flat matrices by partition descent, then hands the matrices to the
// kernel. The indexed entry points in route.go gather bound pool rows
// and call these same functions.

// scoreScratch is the per-forest scoring scratch: leaf-id matrices,
// descent and gather buffers, plus dense, generation-stamped per-leaf
// tables sized to the arena. Reusing it across rounds keeps
// steady-state scoring at O(1) allocations per call (pinned by
// regression tests).
type scoreScratch struct {
	refLeaf  []int32 // K x nRefs leaf ids
	candLeaf []int32 // K x nCands leaf ids
	candRows [][]float64
	refRows  [][]float64

	// descent holds ALCScores' (idx, tmp) partition-descent pair.
	descent []int32

	// routeSrc[k] is the first scoring slot holding slot k's root, and
	// routeUniq lists those first slots: the ones ALCScores descends.
	routeSrc  []int32
	routeUniq []int32

	// Dense per-leaf tables, valid when mark == gen: the claimed
	// reference count of the constant-model closed form, the memoised
	// current predictive variance, and the memoised expected variance
	// reduction per hypothetical observation. ALCScores first spends a
	// generation of cmark/cowner on roots, to find each root's first
	// scoring slot.
	gen     uint32
	cmark   []uint32
	cowner  []int32
	ccount  []int32
	vval    []float64
	dval    []float64
	touched []int32

	// Flat per-leaf reference lists for the linear kernel: lrefs holds
	// every claimed leaf's reference indices contiguously, and
	// lstart[leaf] points one past the leaf's segment (the segment
	// start is lstart[leaf]-ccount[leaf]).
	lstart []int32
	lrefs  []int32
}

// next begins a new scoring round over an arena of n nodes. The
// tables grow geometrically: the arena grows by appends between
// compactions, and resizing to the exact length each round would
// reallocate (and zero) every table on every call.
func (sc *scoreScratch) next(n int) {
	if len(sc.cmark) < n {
		if grown := 2 * len(sc.cmark); grown > n {
			n = grown
		}
		sc.cmark = make([]uint32, n)
		sc.cowner = make([]int32, n)
		sc.ccount = make([]int32, n)
		sc.vval = make([]float64, n)
		sc.dval = make([]float64, n)
		sc.lstart = make([]int32, n)
	}
	sc.gen++
	if sc.gen == 0 { // uint32 wraparound: stale stamps could collide
		for i := range sc.cmark {
			sc.cmark[i] = 0
		}
		sc.gen = 1
	}
	sc.touched = sc.touched[:0]
}

// matrix resizes buf to rows*cols. The backing array grows
// geometrically: candidate sets grow by a few revisits every round,
// and an exact-size reallocation would recur on each of them.
func matrix(buf *[]int32, rows, cols int) []int32 {
	n := rows * cols
	if cap(*buf) < n {
		*buf = make([]int32, max(n, 2*cap(*buf)))
	}
	*buf = (*buf)[:n]
	return *buf
}

// PredictBatch returns the posterior-predictive mean and variance at
// every row of xs. Each entry is bit-identical to the corresponding
// Predict call.
func (f *Forest) PredictBatch(xs [][]float64) (means, variances []float64) {
	means = make([]float64, len(xs))
	variances = make([]float64, len(xs))
	for i, x := range xs {
		means[i], variances[i] = f.Predict(x)
	}
	return means, variances
}

// PredictMeanFastBatch is the batched counterpart of PredictMeanFast:
// entry i is bit-identical to PredictMeanFast(xs[i]).
func (f *Forest) PredictMeanFastBatch(xs [][]float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f.PredictMeanFast(x)
	}
	return out
}

// ALM returns MacKay's active-learning score at x: the posterior
// predictive variance. Higher is more informative.
func (f *Forest) ALM(x []float64) float64 {
	sumM, sumV, sumM2 := 0.0, 0.0, 0.0
	for _, slot := range f.scoreSlots {
		leaf := f.leafOf(f.roots[slot], x)
		loc, v := f.leafPredict(leaf, x, f.augBuf)
		sumM += loc
		sumM2 += loc * loc
		sumV += v
	}
	return almFinish(sumM, sumV, sumM2, float64(len(f.scoreSlots)))
}

// almFinish folds the particle sums into the law-of-total-variance
// score.
func almFinish(sumM, sumV, sumM2, n float64) float64 {
	mean := sumM / n
	variance := sumV/n + sumM2/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return variance
}

// ALMBatch scores every row of xs with the ALM heuristic. Entry i is
// bit-identical to ALM(xs[i]).
func (f *Forest) ALMBatch(xs [][]float64) []float64 {
	scores := make([]float64, len(xs))
	for i, x := range xs {
		scores[i] = f.ALM(x)
	}
	return scores
}

// ALCScores implements Cohn's heuristic as used by Algorithm 1 of the
// paper (predictAvgModelVariance): for every candidate c it returns the
// expected average posterior-predictive variance over the reference set
// after hypothetically observing c once. The learner picks the
// candidate with the LOWEST score.
//
// Under the NIG leaf model only reference points sharing c's leaf see
// their variance change, which gives a closed form per (particle,
// leaf); the implementation groups references by leaf so the cost is
// O(particles * (|refs| + |cands|) * depth) rather than
// O(particles * |refs| * |cands|). With linear leaves the change is
// reference-dependent, and the kernel uses the exact rank-1
// hypothetical-refit update instead (see alcLinearFromMatrices).
//
// The indexed entry point ALCIndexed gathers bound pool rows and
// calls this method. Passing the same slice as cands and refs routes
// the rows once.
func (f *Forest) ALCScores(cands, refs [][]float64) []float64 {
	if len(refs) == 0 || len(cands) == 0 {
		return make([]float64, len(cands))
	}
	K := len(f.scoreSlots)
	same := sameSlice(cands, refs)
	refLeaf := matrix(&f.sc.refLeaf, K, len(refs))
	candLeaf := refLeaf
	if !same {
		candLeaf = matrix(&f.sc.candLeaf, K, len(cands))
	}
	n := max(len(refs), len(cands))
	// Scoring slots that hold the same tree route every row to the same
	// leaves, so only the first slot of each distinct root descends;
	// the repeats copy its rows afterwards. The matrices, and so every
	// accumulation over them, are the same as with one descent per slot.
	sc := &f.sc
	sc.next(f.ar.len())
	src := matrix(&sc.routeSrc, 1, K)
	uniq := sc.routeUniq[:0]
	for k := range src {
		root := f.roots[f.scoreSlots[k]]
		if sc.cmark[root] != sc.gen {
			sc.cmark[root], sc.cowner[root] = sc.gen, int32(k)
			uniq = append(uniq, int32(k))
		}
		src[k] = sc.cowner[root]
	}
	sc.routeUniq = uniq
	descent := matrix(&sc.descent, 2, n)
	idx, tmp := descent[:n], descent[n:]
	for _, k32 := range uniq {
		k := int(k32)
		root := f.roots[f.scoreSlots[k]]
		for j := range refs {
			idx[j] = int32(j)
		}
		f.leafOfBatch(root, refs, idx[:len(refs)], tmp, refLeaf[k*len(refs):(k+1)*len(refs)])
		if same {
			continue
		}
		for i := range cands {
			idx[i] = int32(i)
		}
		f.leafOfBatch(root, cands, idx[:len(cands)], tmp, candLeaf[k*len(cands):(k+1)*len(cands)])
	}
	for k, j := range src {
		if int(j) == k {
			continue
		}
		copy(refLeaf[k*len(refs):(k+1)*len(refs)], refLeaf[int(j)*len(refs):(int(j)+1)*len(refs)])
		if !same {
			copy(candLeaf[k*len(cands):(k+1)*len(cands)], candLeaf[int(j)*len(cands):(int(j)+1)*len(cands)])
		}
	}
	return f.alcFromMatrices(candLeaf, refLeaf, cands, refs, K)
}

// alcFromMatrices computes ALC scores from precomputed (particle,
// input) → leaf matrices, bit-identical to the historical
// tree-walking implementation: the reference pass folds per particle
// in slot order, and every candidate's reduction folds over particles
// in slot order.
//
//alic:noalloc
func (f *Forest) alcFromMatrices(candLeaf, refLeaf []int32, cands, refs [][]float64, K int) []float64 {
	if f.cfg.LeafModel == LinearLeaf {
		return f.alcLinearFromMatrices(candLeaf, refLeaf, cands, refs, K)
	}
	nCands, nRefs := len(cands), len(refs)
	sc := &f.sc
	sc.next(f.ar.len())
	gen := sc.gen

	// Pass 1 (over the cached leaf matrix): per-particle contributions
	// to the current average variance over refs, summed in slot order,
	// plus the per-leaf reference counts of the closed form. A leaf
	// shared by several particles routes exactly the same references
	// in each (node regions are invariants of the id), so the first
	// particle to claim a leaf fixes its count for all of them.
	total := 0.0
	for k := 0; k < K; k++ {
		row := refLeaf[k*nRefs : (k+1)*nRefs]
		sum := 0.0
		for _, leaf := range row {
			if sc.cmark[leaf] != gen {
				sc.cmark[leaf] = gen
				sc.cowner[leaf] = int32(k)
				sc.ccount[leaf] = 0
				sc.vval[leaf] = f.prior.predVariance(f.ar.s[leaf])
				sc.touched = append(sc.touched, leaf)
			}
			if sc.cowner[leaf] == int32(k) {
				sc.ccount[leaf]++
			}
			sum += sc.vval[leaf]
		}
		total += sum
	}
	nParts := float64(K)
	baseAvgVar := total / (nParts * float64(nRefs))

	// Per-leaf expected variance reduction, shared by every candidate
	// routed there.
	for _, leaf := range sc.touched {
		vNow := sc.vval[leaf]
		vAfter := f.prior.expectedPostVariance(f.ar.s[leaf])
		d := 0.0
		if !math.IsInf(vNow, 0) && !math.IsInf(vAfter, 0) {
			if delta := vNow - vAfter; delta > 0 {
				d = delta
			}
		}
		sc.dval[leaf] = d
	}

	// Pass 2: each candidate's expected variance reduction folds over
	// the particles in slot order.
	//alic:allow noalloc result slice, one make per scoring round, returned to the caller
	scores := make([]float64, nCands)
	for ci := range scores {
		reduction := 0.0
		for k := 0; k < K; k++ {
			leaf := candLeaf[k*nCands+ci]
			if sc.cmark[leaf] != gen {
				continue // no references share this leaf
			}
			if d := sc.dval[leaf]; d > 0 {
				reduction += d * float64(sc.ccount[leaf])
			}
		}
		scores[ci] = baseAvgVar - reduction/(nParts*float64(nRefs))
	}
	return scores
}

// alcLinearFromMatrices is the linear-leaf ALC kernel: the NIG linear
// model's predictive variance depends on the query point, so the
// constant-model grouping by count is replaced by per-leaf reference
// lists and the exact expected posterior variance after a rank-1
// hypothetical refit with the candidate row.
//
// Adding (x_c, y) to a leaf updates Lambda' = Lambda + xa_c xa_c',
// a' = a + 1/2 and b' = b + (y - xa_c·m)^2 / (2 (1 + q_c)) with
// q_c = xa_c' Lambda^{-1} xa_c; under the current predictive for y,
// E[b'] = b (2a - 1)/(2a - 2) — the same inflation as the constant
// model — and Sherman–Morrison gives the updated quadratic form at a
// reference r as q'_r = q_r - (xa_r' Lambda^{-1} xa_c)^2 / (1 + q_c).
func (f *Forest) alcLinearFromMatrices(candLeaf, refLeaf []int32, cands, refs [][]float64, K int) []float64 {
	nCands, nRefs := len(cands), len(refs)
	sc := &f.sc
	sc.next(f.ar.len())
	gen := sc.gen

	// Pass 1: per-particle base-variance sums, folded in slot order, and
	// claimed per-leaf reference counts (leaf regions are id-invariants,
	// so any particle's references are THE references; the first
	// particle to claim a leaf owns its list).
	baseTotal := 0.0
	for k := 0; k < K; k++ {
		row := refLeaf[k*nRefs : (k+1)*nRefs]
		sum := 0.0
		for j, leaf := range row {
			sum += f.lprior.predVariance(f.ar.lin[leaf], refs[j], f.augBuf)
			if sc.cmark[leaf] != gen {
				sc.cmark[leaf] = gen
				sc.cowner[leaf] = int32(k)
				sc.ccount[leaf] = 0
				sc.touched = append(sc.touched, leaf)
			}
			if sc.cowner[leaf] == int32(k) {
				sc.ccount[leaf]++
			}
		}
		baseTotal += sum
	}
	nParts := float64(K)
	baseAvgVar := baseTotal / (nParts * float64(nRefs))

	// Materialise the owners' reference lists into one flat buffer:
	// prefix-sum the claimed counts into segment cursors, then replay
	// the rows in claim order so each segment lists its leaf's
	// references exactly as the owning particle saw them.
	total := int32(0)
	for _, leaf := range sc.touched {
		sc.lstart[leaf] = total
		total += sc.ccount[leaf]
	}
	lrefs := matrix(&sc.lrefs, 1, int(total))
	for k := 0; k < K; k++ {
		row := refLeaf[k*nRefs : (k+1)*nRefs]
		for j, leaf := range row {
			if sc.cowner[leaf] == int32(k) {
				lrefs[sc.lstart[leaf]] = int32(j)
				sc.lstart[leaf]++
			}
		}
	}

	// Pass 2, over candidates. After the fill, lstart[leaf] sits one
	// past the leaf's segment.
	scores := make([]float64, nCands)
	for ci := range scores {
		reduction := 0.0
		for k := 0; k < K; k++ {
			leaf := candLeaf[k*nCands+ci]
			if sc.cmark[leaf] != gen {
				continue // no references share this leaf
			}
			refIdx := lrefs[sc.lstart[leaf]-sc.ccount[leaf] : sc.lstart[leaf]]
			reduction += f.linLeafReduction(leaf, cands[ci], refs, refIdx, f.augBuf)
		}
		scores[ci] = baseAvgVar - reduction/(nParts*float64(nRefs))
	}
	return scores
}

// linLeafReduction returns the expected total predictive-variance
// reduction over the leaf's references after hypothetically observing
// the candidate row in that leaf.
func (f *Forest) linLeafReduction(leaf int32, cand []float64, refs [][]float64, refIdx []int32, scratch []float64) float64 {
	lin := f.ar.lin[leaf]
	f.lprior.ensure(lin)
	if lin.degenerate {
		// Degenerate leaf: prediction fell back to the constant closed
		// form, so the hypothetical-refit reduction is the constant
		// model's — reference-independent, once per claimed reference.
		ng := f.lprior.nig()
		cs := lin.constSuff()
		vNow := ng.predVariance(cs)
		vAfter := ng.expectedPostVariance(cs)
		if math.IsInf(vNow, 0) || math.IsInf(vAfter, 0) {
			return 0
		}
		if delta := vNow - vAfter; delta > 0 {
			return delta * float64(len(refIdx))
		}
		return 0
	}
	an := f.lprior.an(lin)
	if an <= 1 {
		return 0 // E[b'] needs a_n > 1, like the constant model
	}
	d := lin.d
	xaC := augInto(scratch[:d], cand)
	// z = Lambda^{-1} xa_c, q_c = xa_c' Lambda^{-1} xa_c.
	z := linalg.CholSolve(lin.chol, xaC)
	qc := linalg.Dot(xaC, z)
	eb := lin.bn * (2*an - 1) / (2*an - 2)
	a1 := an + 0.5
	df1 := 2 * a1
	dfNow := 2 * an
	total := 0.0
	for _, j := range refIdx {
		xaR := augInto(scratch[:d], refs[j])
		qr := linalg.QuadFormInto(lin.chol, xaR, scratch[d:2*d])
		vNow := lin.bn / an * (1 + qr) * dfNow / (dfNow - 2)
		cross := linalg.Dot(xaR, z)
		qr1 := qr - cross*cross/(1+qc)
		vAfter := eb / a1 * (1 + qr1) * df1 / (df1 - 2)
		if math.IsInf(vNow, 0) || math.IsInf(vAfter, 0) {
			continue
		}
		if delta := vNow - vAfter; delta > 0 {
			total += delta
		}
	}
	return total
}

// AvgVariance returns the current average posterior-predictive variance
// over the reference set, using the scoring subsample: per-particle
// sums folded in slot order. Linear leaves use the linear model's
// reference-dependent predictive variance, matching what ALCScores
// optimises.
func (f *Forest) AvgVariance(refs [][]float64) float64 {
	if len(refs) == 0 {
		return 0
	}
	K := len(f.scoreSlots)
	linear := f.cfg.LeafModel == LinearLeaf
	total := 0.0
	for _, slot := range f.scoreSlots {
		root := f.roots[slot]
		sum := 0.0
		for _, r := range refs {
			leaf := f.leafOf(root, r)
			if linear {
				sum += f.lprior.predVariance(f.ar.lin[leaf], r, f.augBuf)
			} else {
				sum += f.prior.predVariance(f.ar.s[leaf])
			}
		}
		total += sum
	}
	return total / (float64(K) * float64(len(refs)))
}
