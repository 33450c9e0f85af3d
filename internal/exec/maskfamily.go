package exec

import (
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/vec"
)

// familyFactorings counts maskFamilySpec constructions (the conjunct
// flattening, canonicalization and prefix/residual factoring analysis);
// familyInstantiations counts per-goroutine instantiations (closure
// compilation plus scratch). Parallel sinks share one spec across all
// their workers, so factorings must stay independent of Parallelism —
// the compile-count assertion tests read these through CompileStats.
//
// cmpGroupsBuilt and cmpLeavesBuilt count the column groups and distinct
// `col OP literal` leaves registered in comparison-leaf tables at compile
// time; cmpGenericReruns counts (block, leaf) pairs the typed kernels handed
// back to types.Compare at run time. Leaves well above groups with zero
// re-runs is what "siblings share one column pass" looks like.
var (
	familyFactorings     atomic.Int64
	familyInstantiations atomic.Int64
	cmpGroupsBuilt       atomic.Int64
	cmpLeavesBuilt       atomic.Int64
	cmpGenericReruns     atomic.Int64
)

// CompileCounters is a snapshot of the process-wide expression-compilation
// instrumentation, used by tests asserting that shared templates are built
// once per operator rather than once per worker.
type CompileCounters struct {
	// MaskFamilyFactorings counts mask-set factoring analyses (shared
	// across a sink's workers).
	MaskFamilyFactorings int64
	// MaskFamilyInstantiations counts per-goroutine family instantiations
	// (closure compilation and scratch; these legitimately scale with
	// worker count because compiled kernels own scratch state).
	MaskFamilyInstantiations int64
	// CompareGroups and CompareLeaves count comparison-leaf table columns
	// and distinct leaves compiled; CompareGenericReruns counts 64-row
	// leaf evaluations that fell back to the row-at-a-time generic loop.
	CompareGroups        int64
	CompareLeaves        int64
	CompareGenericReruns int64
}

// CompileStats returns the current compilation counters.
func CompileStats() CompileCounters {
	return CompileCounters{
		MaskFamilyFactorings:     familyFactorings.Load(),
		MaskFamilyInstantiations: familyInstantiations.Load(),
		CompareGroups:            cmpGroupsBuilt.Load(),
		CompareLeaves:            cmpLeavesBuilt.Load(),
		CompareGenericReruns:     cmpGenericReruns.Load(),
	}
}

// maskFamily evaluates a fused aggregation's whole set of FILTER masks in
// one pass per batch. The fusion rewrite (§III.E) tightens every sibling
// aggregate's mask with the same compensating conjuncts, so the family
// shares structure by construction: each mask flattens into conjuncts, the
// conjuncts common to every mask form a shared prefix, and what is left is
// a small per-mask residual.
//
// Per batch the prefix runs progressively — each prefix conjunct is
// evaluated only over the rows every earlier one passed, truth-only (a
// mask admits a row iff it is non-NULL TRUE, so conjunct combination needs
// only TRUE bits; three-valued logic survives inside each conjunct's
// bitmap compilation where NOT/IS NULL need it). Residual conjuncts are
// deduplicated across masks and evaluated once over the prefix-survivor
// sub-batch, then scattered back to full-length bitmaps. Each mask's final
// truth is its residual bitmaps word-ANDed onto the prefix survivors.
// Against the naive path (one batchEvaluator per distinct mask) the shared
// prefix is evaluated once instead of nMasks times, rows it rejects never
// reach any residual, and no intermediate materializes a []types.Value.
//
// A single-mask family degenerates to progressive conjunct evaluation with
// bitmap kernels — filterIter uses exactly that, so the filter operator
// and the aggregation masks share one evaluation engine.
//
// Like batchEvaluators, a family owns scratch state and is bound to one
// operator instance on one goroutine. Truth bitmaps returned by eval are
// valid until the next eval call.
type maskFamily struct {
	nMasks int

	prefixFns []bitmapFn
	residFns  []bitmapFn
	// maskResids[m] indexes into residFns: the residual conjuncts mask m
	// still requires beyond the shared prefix.
	maskResids [][]int
	// residShare[r] is how many masks carry residual r. Pairwise fusion
	// tightens sibling masks with the same compensating conjuncts, so
	// residuals shared by a subset of the family (but not all of it) are the
	// common case in multi-way fusions; each is evaluated once per batch
	// instead of residShare times.
	residShare []int
	// residCmp is the comparison-leaf table every residual compiles into:
	// residuals all see the same (sub-)batch, so sibling literals on one
	// column share its unboxing. Each prefix conjunct sees a different,
	// narrower selection and so owns a private table.
	residCmp cmpTable

	// scratch, reused across batches
	condBm      vec.Bitmap
	prefixTruth vec.Bitmap
	residTruth  []vec.Bitmap
	maskTruth   []vec.Bitmap
	truths      []*vec.Bitmap
	logi        []int // surviving logical row indices in the input batch
	phys        []int // their physical row indices (b.RowIdx)
	idxScratch  []int

	// prefixHits counts per-mask row evaluations the factoring skipped:
	// rows eliminated by the shared prefix times the family size, plus
	// survivor rows times the extra masks each shared residual would have
	// re-evaluated them under. Stays zero for single-mask families
	// (nothing is shared).
	prefixHits int64
}

// maskFamilySpec is the goroutine-shareable half of a mask family: the
// conjunct flattening, canonicalization, and prefix/residual factoring over
// one input layout. A parallel sink builds the spec once and every worker
// instantiates it, so the O(masks × conjuncts) analysis (and its Canonical
// string rendering) is not repeated per worker. The spec is immutable after
// construction; instantiate() compiles the bitmap closures — which own
// scratch and are goroutine-bound — into a fresh maskFamily per caller.
type maskFamilySpec struct {
	nMasks int
	layout map[expr.ColumnID]int
	// prefixExprs are conjuncts carried by every mask; residExprs are the
	// deduplicated remainder.
	prefixExprs []expr.Expr
	residExprs  []expr.Expr
	maskResids  [][]int
	residShare  []int
}

// newMaskFamilySpec factors a set of masks over one input layout. Masks
// should be canonical (expr.Canonical) so that shared conjuncts dedup by
// their rendered form; filterIter passes raw predicates, which only costs
// missed sharing, never correctness.
func newMaskFamilySpec(masks []expr.Expr, layout map[expr.ColumnID]int) *maskFamilySpec {
	familyFactorings.Add(1)
	type conjunct struct {
		e       expr.Expr
		inMasks int
	}
	var order []string
	byKey := make(map[string]*conjunct)
	maskKeys := make([][]string, len(masks))
	for mi, m := range masks {
		seen := make(map[string]bool)
		for _, c := range expr.Conjuncts(m) {
			key := expr.Canonical(c).String()
			if seen[key] {
				continue
			}
			seen[key] = true
			cj := byKey[key]
			if cj == nil {
				cj = &conjunct{e: c}
				byKey[key] = cj
				order = append(order, key)
			}
			cj.inMasks++
			maskKeys[mi] = append(maskKeys[mi], key)
		}
	}
	sp := &maskFamilySpec{nMasks: len(masks), layout: layout}
	residIdx := make(map[string]int)
	for _, key := range order {
		cj := byKey[key]
		// A conjunct carried by every mask is prefix; note a mask with zero
		// conjuncts (canonical TRUE) empties the prefix entirely, which is
		// exactly right — nothing is shared by all.
		if cj.inMasks == len(masks) {
			sp.prefixExprs = append(sp.prefixExprs, cj.e)
		} else {
			residIdx[key] = len(sp.residExprs)
			sp.residExprs = append(sp.residExprs, cj.e)
		}
	}
	sp.maskResids = make([][]int, len(masks))
	sp.residShare = make([]int, len(sp.residExprs))
	for mi, keys := range maskKeys {
		for _, key := range keys {
			if ri, ok := residIdx[key]; ok {
				sp.maskResids[mi] = append(sp.maskResids[mi], ri)
				sp.residShare[ri]++
			}
		}
	}
	return sp
}

// instantiate compiles the spec's conjuncts into a maskFamily with its own
// scratch, bound to the calling goroutine's operator instance. Per-mask
// residual indexing and share counts alias the spec (read-only after
// construction).
func (sp *maskFamilySpec) instantiate() (*maskFamily, error) {
	familyInstantiations.Add(1)
	mf := &maskFamily{
		nMasks:     sp.nMasks,
		maskResids: sp.maskResids,
		residShare: sp.residShare,
	}
	for _, e := range sp.prefixExprs {
		fn, err := compileBitmapExpr(e, sp.layout)
		if err != nil {
			return nil, err
		}
		mf.prefixFns = append(mf.prefixFns, fn)
	}
	for _, e := range sp.residExprs {
		fn, err := mf.residCmp.compile(e, sp.layout)
		if err != nil {
			return nil, err
		}
		mf.residFns = append(mf.residFns, fn)
	}
	mf.residTruth = make([]vec.Bitmap, len(mf.residFns))
	mf.maskTruth = make([]vec.Bitmap, sp.nMasks)
	mf.truths = make([]*vec.Bitmap, sp.nMasks)
	for i := range mf.maskTruth {
		mf.truths[i] = &mf.maskTruth[i]
	}
	return mf, nil
}

// newMaskFamily factors and compiles in one step, for single-worker call
// sites that have no spec to share.
func newMaskFamily(masks []expr.Expr, layout map[expr.ColumnID]int) (*maskFamily, error) {
	return newMaskFamilySpec(masks, layout).instantiate()
}

// prefixLen reports how many shared conjuncts were factored out.
func (mf *maskFamily) prefixLen() int { return len(mf.prefixFns) }

// hits returns the cumulative prefix-elimination counter.
func (mf *maskFamily) hits() int64 { return mf.prefixHits }

// eval computes every mask's truth bitmap over b's active rows in one
// pass. The returned bitmaps are truth-only (bit i set iff mask m admits
// logical row i) and remain valid until the next eval call.
func (mf *maskFamily) eval(b *vec.Batch) []*vec.Bitmap {
	n := b.Len()

	// Progressive shared prefix: survivors shrink conjunct by conjunct, and
	// every later conjunct (and every residual) is evaluated only over
	// them. prefixAll tracks the "no prefix yet" state where survivors are
	// implicitly all rows and no selection has been materialized.
	prefixAll := true
	sub := b
	for _, fn := range mf.prefixFns {
		fn(sub, &mf.condBm)
		if prefixAll {
			mf.logi = mf.condBm.AppendTrue(mf.logi[:0])
			mf.phys = mf.phys[:0]
			for _, i := range mf.logi {
				mf.phys = append(mf.phys, b.RowIdx(i))
			}
			prefixAll = false
		} else {
			mf.idxScratch = mf.condBm.AppendTrue(mf.idxScratch[:0])
			for k, j := range mf.idxScratch {
				mf.logi[k] = mf.logi[j]
				mf.phys[k] = mf.phys[j]
			}
			mf.logi = mf.logi[:len(mf.idxScratch)]
			mf.phys = mf.phys[:len(mf.idxScratch)]
		}
		if len(mf.logi) == 0 {
			break
		}
		sub = b.WithSel(mf.phys)
	}

	mf.prefixTruth.Reset(n)
	if prefixAll {
		mf.prefixTruth.FillTrue()
	} else {
		for _, i := range mf.logi {
			mf.prefixTruth.SetTrue(i)
		}
		if mf.nMasks > 1 {
			mf.prefixHits += int64(n-len(mf.logi)) * int64(mf.nMasks)
		}
	}

	// Residual conjuncts: each distinct residual is evaluated once over the
	// survivor sub-batch and scattered back to input-batch positions.
	// Truth-only — AndTruthWith below reads only TRUE planes.
	survivors := n
	if !prefixAll {
		survivors = len(mf.logi)
	}
	for _, share := range mf.residShare {
		if share > 1 && survivors > 0 {
			mf.prefixHits += int64(share-1) * int64(survivors)
		}
	}
	mf.residCmp.invalidate()
	for ri := range mf.residFns {
		rt := &mf.residTruth[ri]
		if prefixAll {
			mf.residFns[ri](b, rt)
			continue
		}
		rt.Reset(n)
		if len(mf.logi) == 0 {
			continue
		}
		mf.residFns[ri](sub, &mf.condBm)
		mf.idxScratch = mf.condBm.AppendTrue(mf.idxScratch[:0])
		for _, j := range mf.idxScratch {
			rt.SetTrue(mf.logi[j])
		}
	}

	for mi := range mf.maskTruth {
		mt := &mf.maskTruth[mi]
		mt.CopyFrom(&mf.prefixTruth)
		for _, ri := range mf.maskResids[mi] {
			mt.AndTruthWith(&mf.residTruth[ri])
		}
	}
	return mf.truths
}
