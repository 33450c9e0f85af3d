package vec

import "math/bits"

// Bitmap is a three-valued boolean vector over the active rows of a batch,
// packed 64 rows per word. Bit i of words is set when row i is TRUE; bit i
// of nullWords is set when row i is NULL; both clear means FALSE. The two
// planes are disjoint by construction (a row is never TRUE and NULL), which
// is what lets mask consumers — aggregation FILTER masks, filter selection
// building — read SQL truth (`IsTrue`) straight off the words plane with no
// per-row null test.
//
// Predicate kernels write Bitmaps instead of materializing one types.Value
// per row, so a conjunct's cost is one comparison and one bit write per
// row, and combining sibling masks is a handful of word operations per 64
// rows.
type Bitmap struct {
	n         int
	words     []uint64
	nullWords []uint64
}

// wordsFor returns the number of 64-bit words covering n rows.
func wordsFor(n int) int { return (n + 63) >> 6 }

// Reset resizes the bitmap to n rows with every row FALSE.
func (bm *Bitmap) Reset(n int) {
	w := wordsFor(n)
	if cap(bm.words) < w {
		bm.words = make([]uint64, w)
		bm.nullWords = make([]uint64, w)
	}
	bm.words = bm.words[:w]
	bm.nullWords = bm.nullWords[:w]
	for i := range bm.words {
		bm.words[i] = 0
		bm.nullWords[i] = 0
	}
	bm.n = n
}

// Len returns the row count.
func (bm *Bitmap) Len() int { return bm.n }

// SetTrue marks row i TRUE. The row must not already be NULL.
func (bm *Bitmap) SetTrue(i int) { bm.words[i>>6] |= 1 << (uint(i) & 63) }

// SetNull marks row i NULL. The row must not already be TRUE.
func (bm *Bitmap) SetNull(i int) { bm.nullWords[i>>6] |= 1 << (uint(i) & 63) }

// SetWord stores both planes of rows [64·wi, 64·wi+64) at once: bit j of
// truth marks row 64·wi+j TRUE, bit j of null marks it NULL. It is how block
// kernels write 64 results with two stores instead of 64 read-modify-writes.
// The Bitmap's invariants are enforced here, not by the caller: a row marked
// both ways lands NULL, and bits past the last row are dropped from both
// planes (Count, AppendTrue and Not rely on a zero tail).
func (bm *Bitmap) SetWord(wi int, truth, null uint64) {
	if wi == len(bm.words)-1 {
		m := bm.tailMask()
		truth &= m
		null &= m
	}
	bm.words[wi] = truth &^ null
	bm.nullWords[wi] = null
}

// True reports whether row i is TRUE (not FALSE, not NULL).
func (bm *Bitmap) True(i int) bool { return bm.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Null reports whether row i is NULL.
func (bm *Bitmap) Null(i int) bool { return bm.nullWords[i>>6]&(1<<(uint(i)&63)) != 0 }

// tailMask keeps bits past row n-1 zero so Count and word scans stay exact.
func (bm *Bitmap) tailMask() uint64 {
	if r := uint(bm.n) & 63; r != 0 {
		return (1 << r) - 1
	}
	return ^uint64(0)
}

// clampTail zeroes any bits set past the last row.
func (bm *Bitmap) clampTail() {
	if len(bm.words) == 0 {
		return
	}
	m := bm.tailMask()
	bm.words[len(bm.words)-1] &= m
	bm.nullWords[len(bm.nullWords)-1] &= m
}

// FillTrue sets every row TRUE.
func (bm *Bitmap) FillTrue() {
	for i := range bm.words {
		bm.words[i] = ^uint64(0)
		bm.nullWords[i] = 0
	}
	bm.clampTail()
}

// FillNull sets every row NULL.
func (bm *Bitmap) FillNull() {
	for i := range bm.words {
		bm.words[i] = 0
		bm.nullWords[i] = ^uint64(0)
	}
	bm.clampTail()
}

// CopyFrom makes bm an exact copy of o.
func (bm *Bitmap) CopyFrom(o *Bitmap) {
	bm.Reset(o.n)
	copy(bm.words, o.words)
	copy(bm.nullWords, o.nullWords)
}

// AndWith folds o into bm under Kleene AND: TRUE iff both TRUE, FALSE iff
// either FALSE, NULL otherwise. Lengths must match.
func (bm *Bitmap) AndWith(o *Bitmap) {
	for i := range bm.words {
		t1, u1 := bm.words[i], bm.nullWords[i]
		t2, u2 := o.words[i], o.nullWords[i]
		// NULL iff at least one side is NULL and neither side is FALSE
		// (FALSE = neither TRUE nor NULL).
		bm.words[i] = t1 & t2
		bm.nullWords[i] = (u1 | u2) & (t1 | u1) & (t2 | u2)
	}
}

// OrWith folds o into bm under Kleene OR: TRUE iff either TRUE, FALSE iff
// both FALSE, NULL otherwise. Lengths must match.
func (bm *Bitmap) OrWith(o *Bitmap) {
	for i := range bm.words {
		t := bm.words[i] | o.words[i]
		bm.words[i] = t
		bm.nullWords[i] = (bm.nullWords[i] | o.nullWords[i]) &^ t
	}
}

// Not replaces bm with its Kleene negation in place: TRUE↔FALSE, NULL
// stays NULL.
func (bm *Bitmap) Not() {
	for i := range bm.words {
		bm.words[i] = ^(bm.words[i] | bm.nullWords[i])
	}
	bm.clampTail()
}

// AndTruthWith intersects only the TRUE planes: bm row stays TRUE iff both
// are TRUE. Null bits of bm are cleared — the result is two-valued SQL
// truth, exactly what mask and filter consumers read. This is the kernel
// that combines a mask's conjunct bitmaps.
func (bm *Bitmap) AndTruthWith(o *Bitmap) {
	for i := range bm.words {
		bm.words[i] &= o.words[i]
		bm.nullWords[i] = 0
	}
}

// Count returns the number of TRUE rows.
func (bm *Bitmap) Count() int {
	c := 0
	for _, w := range bm.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// AppendTrue appends the indices of TRUE rows to dst in ascending order.
func (bm *Bitmap) AppendTrue(dst []int) []int {
	for wi, w := range bm.words {
		base := wi << 6
		for w != 0 {
			dst = append(dst, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}
