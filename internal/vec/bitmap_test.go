package vec

import (
	"math/rand"
	"testing"
)

// tri is the reference three-valued model: 0 FALSE, 1 TRUE, 2 NULL.
type tri uint8

const (
	triFalse tri = 0
	triTrue  tri = 1
	triNull  tri = 2
)

func kleeneAndRef(a, b tri) tri {
	if a == triFalse || b == triFalse {
		return triFalse
	}
	if a == triNull || b == triNull {
		return triNull
	}
	return triTrue
}

func kleeneOrRef(a, b tri) tri {
	if a == triTrue || b == triTrue {
		return triTrue
	}
	if a == triNull || b == triNull {
		return triNull
	}
	return triFalse
}

func kleeneNotRef(a tri) tri {
	switch a {
	case triTrue:
		return triFalse
	case triFalse:
		return triTrue
	default:
		return triNull
	}
}

func bitmapFromTri(vals []tri) *Bitmap {
	bm := &Bitmap{}
	bm.Reset(len(vals))
	for i, v := range vals {
		switch v {
		case triTrue:
			bm.SetTrue(i)
		case triNull:
			bm.SetNull(i)
		}
	}
	return bm
}

func triAt(bm *Bitmap, i int) tri {
	switch {
	case bm.True(i):
		if bm.Null(i) {
			return 99 // invariant violation, caught by comparison
		}
		return triTrue
	case bm.Null(i):
		return triNull
	default:
		return triFalse
	}
}

func randomTri(rng *rand.Rand, n int) []tri {
	vals := make([]tri, n)
	for i := range vals {
		vals[i] = tri(rng.Intn(3))
	}
	return vals
}

// Sizes straddle word boundaries to exercise tail masking.
var bitmapSizes = []int{0, 1, 7, 63, 64, 65, 127, 128, 129, 200, 1000}

func TestBitmapKleeneKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range bitmapSizes {
		for trial := 0; trial < 4; trial++ {
			a := randomTri(rng, n)
			b := randomTri(rng, n)

			and := bitmapFromTri(a)
			and.AndWith(bitmapFromTri(b))
			or := bitmapFromTri(a)
			or.OrWith(bitmapFromTri(b))
			not := bitmapFromTri(a)
			not.Not()
			truth := bitmapFromTri(a)
			truth.AndTruthWith(bitmapFromTri(b))

			for i := 0; i < n; i++ {
				if got, want := triAt(and, i), kleeneAndRef(a[i], b[i]); got != want {
					t.Fatalf("n=%d AND row %d (%v,%v): got %v want %v", n, i, a[i], b[i], got, want)
				}
				if got, want := triAt(or, i), kleeneOrRef(a[i], b[i]); got != want {
					t.Fatalf("n=%d OR row %d (%v,%v): got %v want %v", n, i, a[i], b[i], got, want)
				}
				if got, want := triAt(not, i), kleeneNotRef(a[i]); got != want {
					t.Fatalf("n=%d NOT row %d (%v): got %v want %v", n, i, a[i], got, want)
				}
				wantTruth := triFalse
				if a[i] == triTrue && b[i] == triTrue {
					wantTruth = triTrue
				}
				if got := triAt(truth, i); got != wantTruth {
					t.Fatalf("n=%d AndTruth row %d (%v,%v): got %v want %v", n, i, a[i], b[i], got, wantTruth)
				}
			}
			// Tail bits past n must stay zero so Count stays exact.
			for _, bm := range []*Bitmap{and, or, not, truth} {
				wantCount := 0
				for i := 0; i < n; i++ {
					if triAt(bm, i) == triTrue {
						wantCount++
					}
				}
				if got := bm.Count(); got != wantCount {
					t.Fatalf("n=%d Count: got %d want %d", n, got, wantCount)
				}
			}
		}
	}
}

func TestBitmapFillAndCopy(t *testing.T) {
	for _, n := range bitmapSizes {
		bm := &Bitmap{}
		bm.Reset(n)
		bm.FillTrue()
		if got := bm.Count(); got != n {
			t.Fatalf("n=%d FillTrue Count=%d", n, got)
		}
		bm.FillNull()
		if got := bm.Count(); got != 0 {
			t.Fatalf("n=%d FillNull Count=%d", n, got)
		}
		for i := 0; i < n; i++ {
			if !bm.Null(i) {
				t.Fatalf("n=%d FillNull row %d not null", n, i)
			}
		}
		cp := &Bitmap{}
		cp.CopyFrom(bm)
		if cp.Len() != n {
			t.Fatalf("CopyFrom len %d want %d", cp.Len(), n)
		}
		for i := 0; i < n; i++ {
			if cp.True(i) != bm.True(i) || cp.Null(i) != bm.Null(i) {
				t.Fatalf("n=%d CopyFrom row %d mismatch", n, i)
			}
		}
	}
}

func TestBitmapResetReuse(t *testing.T) {
	bm := &Bitmap{}
	bm.Reset(200)
	bm.FillTrue()
	// Shrinking reuses the backing array; all rows must come back FALSE.
	bm.Reset(70)
	if got := bm.Count(); got != 0 {
		t.Fatalf("after Reset Count=%d", got)
	}
	bm.SetTrue(69)
	if !bm.True(69) || bm.Count() != 1 {
		t.Fatal("SetTrue after reuse failed")
	}
}

func TestBitmapAppendTrue(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range bitmapSizes {
		vals := randomTri(rng, n)
		bm := bitmapFromTri(vals)
		var want []int
		for i, v := range vals {
			if v == triTrue {
				want = append(want, i)
			}
		}
		got := bm.AppendTrue(nil)
		if len(got) != len(want) {
			t.Fatalf("n=%d AppendTrue len %d want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d AppendTrue[%d]=%d want %d", n, i, got[i], want[i])
			}
		}
		// Appending onto a non-empty slice preserves the prefix.
		pre := []int{-1}
		got2 := bm.AppendTrue(pre)
		if got2[0] != -1 || len(got2) != 1+len(want) {
			t.Fatalf("n=%d AppendTrue with prefix broken", n)
		}
	}
}

// TestBitmapSetWord writes whole words against the tri-state model. The
// caller is deliberately sloppy — every row's truth bit carries a random
// value under a NULL, and every bit past the last row is set in both planes
// — because SetWord, not the kernel calling it, owns the invariants.
func TestBitmapSetWord(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range bitmapSizes {
		vals := randomTri(rng, n)
		bm := &Bitmap{}
		bm.Reset(n)
		bm.FillTrue() // stale contents must be overwritten, not merged
		for wi := 0; wi < wordsFor(n); wi++ {
			var truth, null uint64
			for j := 0; j < 64; j++ {
				i := wi<<6 + j
				switch {
				case i >= n:
					truth |= 1 << uint(j)
					null |= 1 << uint(j)
				case vals[i] == triTrue:
					truth |= 1 << uint(j)
				case vals[i] == triNull:
					null |= 1 << uint(j)
					truth |= uint64(rng.Intn(2)) << uint(j)
				}
			}
			bm.SetWord(wi, truth, null)
		}
		wantTrue, wantFalse := 0, 0
		for i, v := range vals {
			if got := triAt(bm, i); got != v {
				t.Fatalf("n=%d row %d: got %v want %v", n, i, got, v)
			}
			switch v {
			case triTrue:
				wantTrue++
			case triFalse:
				wantFalse++
			}
		}
		if n > 0 {
			last, m := wordsFor(n)-1, bm.tailMask()
			if bm.words[last]&^m != 0 || bm.nullWords[last]&^m != 0 {
				t.Fatalf("n=%d: tail bits survive (truth %x, null %x)", n, bm.words[last]&^m, bm.nullWords[last]&^m)
			}
		}
		if got := bm.Count(); got != wantTrue {
			t.Fatalf("n=%d Count %d want %d", n, got, wantTrue)
		}
		if got := len(bm.AppendTrue(nil)); got != wantTrue {
			t.Fatalf("n=%d AppendTrue len %d want %d", n, got, wantTrue)
		}
		bm.Not()
		if got := bm.Count(); got != wantFalse {
			t.Fatalf("n=%d Count after Not %d want %d", n, got, wantFalse)
		}
	}
}
