package rescache

import (
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/storage"
	"repro/internal/types"
)

// cheapOffer offers a result far below the 1/8 admission floor.
func cheapOffer(tx *Tx) bool {
	rows, bytes := rowsOfBytes(100, 56) // 8000 bytes for 50 rows of work
	admitted, _ := tx.Offer(rows, bytes, CostMetrics{RowsScanned: 50})
	return admitted
}

// denseOffer offers a result well above any admission floor.
func denseOffer(tx *Tx) bool {
	rows, bytes := rowsOfBytes(4, 8)
	admitted, _ := tx.Offer(rows, bytes, CostMetrics{RowsScanned: 1 << 20})
	return admitted
}

func TestCaptureOnSecondSight(t *testing.T) {
	st := testStore(t)
	c := New(1 << 20)
	if c.Begin(chainPlan(t, st, 5), st).Capture() {
		t.Fatal("first sight captured")
	}
	if !c.Begin(chainPlan(t, st, 5), st).Capture() {
		t.Fatal("second sight not captured")
	}
	if c.Begin(chainPlan(t, st, 6), st).Capture() {
		t.Fatal("another fingerprint's first sight captured")
	}
}

// TestGhostSetClearsWhenFull: the set holds maxGhosts fingerprints, and
// recording one more clears it, so an old fingerprint is a first sight
// again.
func TestGhostSetClearsWhenFull(t *testing.T) {
	st := testStore(t)
	c := New(1 << 20)
	for lim := int64(0); lim < maxGhosts; lim++ {
		c.Begin(chainPlan(t, st, lim), st).Capture()
	}
	if n := len(c.ghosts); n != maxGhosts {
		t.Fatalf("ghost set holds %d fingerprints, want %d", n, maxGhosts)
	}
	if !c.Begin(chainPlan(t, st, 0), st).Capture() {
		t.Fatal("full set forgot a fingerprint before overflowing")
	}
	c.Begin(chainPlan(t, st, maxGhosts), st).Capture()
	if n := len(c.ghosts); n != 1 {
		t.Fatalf("fingerprint %d left %d ghosts, want the set cleared to 1", maxGhosts+1, n)
	}
	if c.Begin(chainPlan(t, st, 0), st).Capture() {
		t.Fatal("fingerprint survived the clear")
	}
}

// oversizeOffer offers what a capture abandoned past MaxEntryBytes offers:
// no rows, only the byte count it reached.
func oversizeOffer(tx *Tx) bool {
	admitted, _ := tx.Offer(nil, tx.c.MaxEntryBytes()+1, CostMetrics{RowsScanned: 1 << 20})
	return admitted
}

// TestDensityRejectRemembered: a fingerprint whose offer was too cheap, or
// too large, is not captured again while its table is unchanged. An append
// to another table changes nothing; an append to its own table makes it
// capturable.
func TestDensityRejectRemembered(t *testing.T) {
	for name, reject := range map[string]func(*Tx) bool{"density": cheapOffer, "size": oversizeOffer} {
		st := testStore(t)
		c := New(1 << 20)
		c.Begin(chainPlan(t, st, 5), st).Capture()
		tx := c.Begin(chainPlan(t, st, 5), st)
		if !tx.Capture() {
			t.Fatalf("%s: second sight not captured", name)
		}
		if reject(tx) {
			t.Fatalf("%s: result admitted", name)
		}
		if c.Begin(chainPlan(t, st, 5), st).Capture() {
			t.Fatalf("%s: rejected fingerprint captured again over the same partitions", name)
		}
		if err := st.Append("g", [][]types.Value{{types.Int(2)}}); err != nil {
			t.Fatal(err)
		}
		if c.Begin(chainPlan(t, st, 5), st).Capture() {
			t.Fatalf("%s: append to another table made a rejected fingerprint capturable", name)
		}
		if err := st.Append("f", [][]types.Value{{types.Int(1), types.Int(99), types.Int(0)}}); err != nil {
			t.Fatal(err)
		}
		tx = c.Begin(chainPlan(t, st, 5), st)
		if !tx.Capture() {
			t.Fatalf("%s: append to the scanned table left the fingerprint uncapturable", name)
		}
		// Admitted under the new partition set: the low mark is gone.
		if !denseOffer(tx) {
			t.Fatalf("%s: dense result rejected", name)
		}
		if !c.Begin(chainPlan(t, st, 5), st).Capture() {
			t.Fatalf("%s: admitted fingerprint still marked low", name)
		}
	}
}

// TestCapturedFingerprintRecapturesAfterAppend: an entry an append
// invalidated is recaptured on its first miss after the append.
func TestCapturedFingerprintRecapturesAfterAppend(t *testing.T) {
	st := testStore(t)
	c := New(1 << 20)
	c.Begin(chainPlan(t, st, 5), st).Capture()
	tx := c.Begin(chainPlan(t, st, 5), st)
	if !tx.Capture() || !denseOffer(tx) {
		t.Fatal("second sight not captured and admitted")
	}
	if err := st.Append("f", [][]types.Value{{types.Int(1), types.Int(99), types.Int(0)}}); err != nil {
		t.Fatal(err)
	}
	tx = c.Begin(chainPlan(t, st, 5), st)
	if _, ok := tx.Lookup(); ok {
		t.Fatal("stale entry served after append")
	}
	if !tx.Capture() {
		t.Fatal("captured fingerprint deferred on its first miss after an append")
	}
}

// TestCaptureConcurrent drives Begin/Lookup/Capture/Offer from 8 goroutines
// over a few fingerprints, with appends changing the partition set under
// them; run it under -race.
func TestCaptureConcurrent(t *testing.T) {
	st := testStore(t)
	c := New(1 << 20)
	var plans []logical.Operator
	for lim := int64(0); lim < 6; lim++ {
		plans = append(plans, chainPlan(t, st, lim))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if g == 0 && i%50 == 0 {
					if err := st.Append("f", [][]types.Value{{types.Int(1), types.Int(int64(i)), types.Int(0)}}); err != nil {
						t.Error(err)
						return
					}
				}
				tx := c.Begin(plans[(g+i)%len(plans)], st)
				if _, ok := tx.Lookup(); ok || !tx.Capture() {
					continue
				}
				if (g+i)%3 == 0 {
					cheapOffer(tx)
				} else {
					denseOffer(tx)
				}
			}
		}(g)
	}
	wg.Wait()
	if n, _ := c.Stats(); n > len(plans) {
		t.Fatalf("%d entries for %d fingerprints", n, len(plans))
	}
}

// literalPlan builds SELECT v + lit FROM f: every literal interns its own
// canonical projection column.
func literalPlan(st *storage.Store, lit int64) logical.Operator {
	tab, _ := st.Catalog().Table("f")
	s := logical.NewScan(tab)
	return &logical.Project{Input: s, Cols: []logical.Assignment{
		logical.Assign("p", expr.NewBinary(expr.OpAdd, expr.Ref(s.ColumnFor("v")), expr.Lit(types.Int(lit)))),
	}}
}

func internLen() int {
	internMu.Lock()
	defer internMu.Unlock()
	return len(internCols)
}

// TestInternTableBounded: more distinct projections than the intern cap
// leave the table at or below it, and a sub-plan repeated after a clear
// still renders one stable fingerprint and hits.
func TestInternTableBounded(t *testing.T) {
	st := testStore(t)
	for lit := int64(0); lit <= maxInternCols; lit++ {
		if _, _, ok := Fingerprint(literalPlan(st, lit)); !ok {
			t.Fatal("eligible projection rejected")
		}
		if n := internLen(); n > maxInternCols {
			t.Fatalf("intern table grew to %d, cap %d", n, maxInternCols)
		}
	}
	c := New(1 << 20)
	if !denseOffer(c.Begin(literalPlan(st, 7), st)) {
		t.Fatal("dense result rejected")
	}
	if _, ok := c.Begin(literalPlan(st, 7), st).Lookup(); !ok {
		t.Fatal("sub-plan repeated after an intern clear missed")
	}
}
