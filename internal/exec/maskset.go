package exec

import (
	"repro/internal/expr"
	"repro/internal/vec"
)

// A mask set is the one seam between the operators that need SQL truth for
// a set of boolean expressions over a batch — the filter, the fused filter
// stage, the aggregate FILTER masks, the mark-distinct masks — and the
// engine that computes it. Callers see only eval's truth bitmaps; which
// engine runs (the mask-family kernel, or the Options.NaiveMasks
// differential reference) is decided once, in maskSetSpec.instantiate, and
// nowhere else in the package.

// maskSetSpec is the goroutine-shareable half of a mask set: the masks, the
// layout they bind to, and — on the family path — the factoring analysis,
// built on first instantiation and shared by every later one. All
// instantiations of one spec happen sequentially on the goroutine that
// builds the plan, so the cache needs no lock.
type maskSetSpec struct {
	masks  []expr.Expr
	layout map[expr.ColumnID]int
	naive  bool
	fam    *maskFamilySpec
}

func newMaskSetSpec(masks []expr.Expr, layout map[expr.ColumnID]int, naive bool) *maskSetSpec {
	return &maskSetSpec{masks: masks, layout: layout, naive: naive}
}

// instantiate compiles the spec into a mask set with its own scratch, bound
// to one operator instance on one goroutine. An empty spec yields a set
// whose eval returns no bitmaps.
func (sp *maskSetSpec) instantiate() (*maskSet, error) {
	if len(sp.masks) == 0 {
		return &maskSet{}, nil
	}
	if !sp.naive {
		if sp.fam == nil {
			sp.fam = newMaskFamilySpec(sp.masks, sp.layout)
		}
		fam, err := sp.fam.instantiate()
		if err != nil {
			return nil, err
		}
		return &maskSet{fam: fam}, nil
	}
	// The reference engine shares nothing with the family kernel: no
	// factoring, no bitmap compiler, no comparison leaves — one value vector
	// per mask through the batch expression compiler.
	ms := &maskSet{
		evs:    make([]*batchEvaluator, len(sp.masks)),
		bms:    make([]vec.Bitmap, len(sp.masks)),
		truths: make([]*vec.Bitmap, len(sp.masks)),
	}
	for i, e := range sp.masks {
		ev, err := newBatchEvaluator(e, sp.layout)
		if err != nil {
			return nil, err
		}
		ms.evs[i], ms.truths[i] = ev, &ms.bms[i]
	}
	return ms, nil
}

// maskSet evaluates its masks over a batch. Exactly one engine is
// populated: fam, or the reference evaluators with their result bitmaps.
type maskSet struct {
	fam    *maskFamily
	evs    []*batchEvaluator
	bms    []vec.Bitmap
	truths []*vec.Bitmap
}

// eval returns one truth-only bitmap per mask (bit i set iff the mask is
// non-NULL TRUE for logical row i of b), valid until the next eval call.
func (ms *maskSet) eval(b *vec.Batch) []*vec.Bitmap {
	if ms.fam != nil {
		return ms.fam.eval(b)
	}
	n := b.Len()
	for mi, ev := range ms.evs {
		vals := ev.eval(b)
		bm := &ms.bms[mi]
		bm.Reset(n)
		for i := 0; i < n; i++ {
			if vals[i].IsTrue() {
				bm.SetTrue(i)
			}
		}
	}
	return ms.truths
}

// hits returns the family kernel's cumulative prefix-elimination counter
// (Metrics.MaskPrefixHits); the reference engine shares nothing and
// reports zero.
func (ms *maskSet) hits() int64 {
	if ms.fam == nil {
		return 0
	}
	return ms.fam.hits()
}

// narrow restricts b to the rows a single mask admits: b itself when every
// row passes, nil when none does, otherwise b under a freshly allocated
// selection (the result may outlive the truth bitmap).
func narrow(b *vec.Batch, truth *vec.Bitmap) *vec.Batch {
	n := b.Len()
	count := truth.Count()
	if count == n {
		return b
	}
	if count == 0 {
		return nil
	}
	sel := make([]int, 0, count)
	for i := 0; i < n; i++ {
		if truth.True(i) {
			sel = append(sel, b.RowIdx(i))
		}
	}
	return b.WithSel(sel)
}
