package rescache

import (
	"testing"
	"unsafe"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/storage"
	"repro/internal/types"
)

func testStore(t *testing.T) *storage.Store {
	t.Helper()
	cat := catalog.New()
	cat.MustAdd(&catalog.Table{
		Name: "f",
		Columns: []catalog.Column{
			{Name: "k", Type: types.KindInt64},
			{Name: "v", Type: types.KindInt64},
			{Name: "d", Type: types.KindInt64},
		},
		PartitionColumn: "d",
	})
	cat.MustAdd(&catalog.Table{
		Name: "g",
		Columns: []catalog.Column{
			{Name: "x", Type: types.KindInt64},
		},
	})
	st := storage.NewStore(cat)
	var rows [][]types.Value
	for i := 0; i < 30; i++ {
		rows = append(rows, []types.Value{types.Int(int64(i % 5)), types.Int(int64(i)), types.Int(int64(i % 3))})
	}
	if err := st.Load("f", rows); err != nil {
		t.Fatal(err)
	}
	if err := st.Load("g", [][]types.Value{{types.Int(1)}}); err != nil {
		t.Fatal(err)
	}
	return st
}

// chainPlan builds SELECT k FROM f WHERE v > lim as a fresh plan tree with
// fresh column identities, the way an independent query compilation would.
func chainPlan(t *testing.T, st *storage.Store, lim int64) logical.Operator {
	t.Helper()
	tab, ok := st.Catalog().Table("f")
	if !ok {
		t.Fatal("no table f")
	}
	s := logical.NewScan(tab)
	f := logical.NewFilter(s, expr.NewBinary(expr.OpGt, expr.Ref(s.ColumnFor("v")), expr.Lit(types.Int(lim))))
	return &logical.Project{Input: f, Cols: []logical.Assignment{
		logical.Assign("k", expr.Ref(s.ColumnFor("k"))),
	}}
}

func rowsOfBytes(n int, payload int) ([][]types.Value, int64) {
	rows := make([][]types.Value, n)
	var b int64
	for i := range rows {
		rows[i] = []types.Value{types.String(string(make([]byte, payload)))}
		b += RowBytes(rows[i])
	}
	return rows, b
}

func TestFingerprintStableAcrossInstances(t *testing.T) {
	st := testStore(t)
	fp1, tab1, ok1 := Fingerprint(chainPlan(t, st, 7))
	fp2, tab2, ok2 := Fingerprint(chainPlan(t, st, 7))
	if !ok1 || !ok2 {
		t.Fatal("eligible chain rejected")
	}
	if fp1 != fp2 || tab1 != tab2 || tab1 != "f" {
		t.Fatalf("fingerprints diverge across instances:\n%s\n%s", fp1, fp2)
	}
	fp3, _, _ := Fingerprint(chainPlan(t, st, 8))
	if fp3 == fp1 {
		t.Fatal("different predicates share a fingerprint")
	}
}

func TestFingerprintRejectsIneligibleShapes(t *testing.T) {
	st := testStore(t)
	tab, _ := st.Catalog().Table("f")
	s := logical.NewScan(tab)
	sum := expr.AggCall{Fn: expr.AggSum, Arg: expr.Ref(s.ColumnFor("v"))}
	gb1 := &logical.GroupBy{Input: s, Keys: []*expr.Column{s.ColumnFor("k")},
		Aggs: []logical.AggAssign{{Col: expr.NewColumn("s", sum.ResultType()), Agg: sum}}}
	if _, _, ok := Fingerprint(gb1); !ok {
		t.Fatal("keyed aggregation over a scan must be eligible")
	}
	cnt := expr.AggCall{Fn: expr.AggCountStar}
	gb2 := &logical.GroupBy{Input: gb1, Keys: nil,
		Aggs: []logical.AggAssign{{Col: expr.NewColumn("c", cnt.ResultType()), Agg: cnt}}}
	if _, _, ok := Fingerprint(gb2); ok {
		t.Fatal("double aggregation must be ineligible")
	}
	if _, _, ok := Fingerprint(&logical.Values{}); ok {
		t.Fatal("values leaf must be ineligible")
	}
}

func TestAdmissionRejectsCheapBulkyResults(t *testing.T) {
	st := testStore(t)
	c := New(1 << 20)
	tx := c.Begin(chainPlan(t, st, 0), st)
	if tx == nil {
		t.Fatal("Begin = nil for eligible plan")
	}
	// 100 logical rows producing 8000 result bytes: density 0.0125 < 1/8.
	rows, bytes := rowsOfBytes(100, 56)
	admitted, evicted := tx.Offer(rows, bytes, CostMetrics{RowsScanned: 50, RowsProcessed: 50})
	if admitted || evicted != 0 {
		t.Fatalf("cheap bulky result admitted=%v evicted=%d", admitted, evicted)
	}
	// The same bytes backed by dense compute clears the bar.
	if admitted, _ := tx.Offer(rows, bytes, CostMetrics{RowsScanned: 4000, RowsProcessed: 4000}); !admitted {
		t.Fatal("dense result rejected")
	}
	if _, ok := tx.Lookup(); !ok {
		t.Fatal("admitted entry not served")
	}
}

func TestAdmissionRejectsOversizedResults(t *testing.T) {
	st := testStore(t)
	c := New(1024) // MaxEntryBytes = 256
	tx := c.Begin(chainPlan(t, st, 0), st)
	rows, bytes := rowsOfBytes(20, 8) // 640 bytes > 256
	if admitted, _ := tx.Offer(rows, bytes, CostMetrics{RowsScanned: 1 << 20}); admitted {
		t.Fatal("entry above MaxEntryBytes admitted")
	}
}

// TestEvictionOrderGreedyDualSize fills the cache with entries of equal
// size but different cost densities and verifies pressure evicts the
// cheapest-to-recompute entry first, and that a hit refreshes an entry's
// priority past an unhit peer's.
func TestEvictionOrderGreedyDualSize(t *testing.T) {
	st := testStore(t)
	// Four 500-byte entries fit (2000 ≤ 2048) and each clears the cap/4
	// per-entry bound (500 ≤ 512); a fifth forces eviction.
	c := New(2048)
	offer := func(lim int64, costRows int64) *Tx {
		t.Helper()
		tx := c.Begin(chainPlan(t, st, lim), st)
		rows, bytes := rowsOfBytes(10, 26) // 500 bytes each
		admitted, _ := tx.Offer(rows, bytes, CostMetrics{RowsScanned: costRows})
		if !admitted {
			t.Fatalf("offer(lim=%d) rejected", lim)
		}
		return tx
	}
	a := offer(1, 200)   // density 0.4, h = 0.4
	b := offer(2, 250)   // density 0.5, h = 0.5
	cc := offer(3, 2500) // density 5.0, h = 5.0
	d := offer(4, 275)   // density 0.55, h = 0.55
	if n, bytes := c.Stats(); n != 4 || bytes != 2000 {
		t.Fatalf("stats = %d entries %d bytes", n, bytes)
	}
	// A fifth entry forces the first eviction: the minimum-priority entry
	// (a, cheapest to recompute) goes, and the clock advances to its h=0.4.
	offer(5, 350)
	if _, ok := a.Lookup(); ok {
		t.Fatal("cheapest entry survived the first eviction")
	}
	if _, ok := cc.Lookup(); !ok {
		t.Fatal("dense entry evicted first")
	}
	// A hit refreshes b against the advanced clock: h = 0.4 + 0.5 = 0.9,
	// overtaking d (0.55). The next eviction must therefore pick d — had
	// the hit not re-anchored b's priority, b (h=0.5) would have been the
	// victim instead.
	if _, ok := b.Lookup(); !ok {
		t.Fatal("b vanished early")
	}
	offer(6, 400)
	if _, ok := d.Lookup(); ok {
		t.Fatal("d survived: hit-refresh did not re-anchor b's priority")
	}
	if _, ok := b.Lookup(); !ok {
		t.Fatal("refreshed entry b was evicted before untouched d")
	}
	if _, ok := cc.Lookup(); !ok {
		t.Fatal("dense entry evicted under pressure it should outrank")
	}
}

func TestAppendInvalidatesOnlyTouchedTable(t *testing.T) {
	st := testStore(t)
	c := New(1 << 20)
	tx := c.Begin(chainPlan(t, st, 5), st)
	rows, bytes := rowsOfBytes(4, 8)
	if admitted, _ := tx.Offer(rows, bytes, CostMetrics{RowsScanned: 1 << 20}); !admitted {
		t.Fatal("offer rejected")
	}
	// Append to an unrelated table: entry survives.
	if err := st.Append("g", [][]types.Value{{types.Int(2)}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Begin(chainPlan(t, st, 5), st).Lookup(); !ok {
		t.Fatal("append to g invalidated an entry over f")
	}
	// Append to the scanned table: lazy invalidation on next lookup.
	if err := st.Append("f", [][]types.Value{{types.Int(1), types.Int(99), types.Int(0)}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Begin(chainPlan(t, st, 5), st).Lookup(); ok {
		t.Fatal("stale entry served after append to f")
	}
	if n, _ := c.Stats(); n != 0 {
		t.Fatalf("stale entry not deleted: %d entries", n)
	}
}

// TestOfferRejectsRacingAppend begins a transaction, mutates the table
// before the offer (the append-raced-the-computation window), and verifies
// the snapshot revalidation refuses the mixed-epoch result.
func TestOfferRejectsRacingAppend(t *testing.T) {
	st := testStore(t)
	c := New(1 << 20)
	tx := c.Begin(chainPlan(t, st, 5), st)
	if err := st.Append("f", [][]types.Value{{types.Int(1), types.Int(99), types.Int(0)}}); err != nil {
		t.Fatal(err)
	}
	rows, bytes := rowsOfBytes(4, 8)
	if admitted, _ := tx.Offer(rows, bytes, CostMetrics{RowsScanned: 1 << 20}); admitted {
		t.Fatal("offer admitted a result computed across an append")
	}
	if n, _ := c.Stats(); n != 0 {
		t.Fatalf("rejected offer left %d entries", n)
	}
}

func TestReplaceSameFingerprint(t *testing.T) {
	st := testStore(t)
	c := New(1 << 20)
	for i := 0; i < 3; i++ {
		tx := c.Begin(chainPlan(t, st, 5), st)
		rows, bytes := rowsOfBytes(4+i, 8)
		if admitted, _ := tx.Offer(rows, bytes, CostMetrics{RowsScanned: 1 << 20}); !admitted {
			t.Fatalf("offer %d rejected", i)
		}
	}
	n, b := c.Stats()
	if n != 1 {
		t.Fatalf("same-fingerprint offers accumulated %d entries", n)
	}
	if want := int64(6 * 32); b != want {
		t.Fatalf("bytes = %d, want %d (latest entry only)", b, want)
	}
}

func TestBeginNilCases(t *testing.T) {
	st := testStore(t)
	if tx := (*Cache)(nil).Begin(chainPlan(t, st, 1), st); tx != nil {
		t.Fatal("nil cache began a transaction")
	}
	if tx := New(0).Begin(chainPlan(t, st, 1), st); tx != nil {
		t.Fatal("zero-capacity cache began a transaction")
	}
	c := New(1 << 20)
	if tx := c.Begin(&logical.Values{}, st); tx != nil {
		t.Fatal("ineligible shape began a transaction")
	}
	// A table with no data has no signature.
	cat := catalog.New()
	cat.MustAdd(&catalog.Table{Name: "f", Columns: []catalog.Column{
		{Name: "k", Type: types.KindInt64}, {Name: "v", Type: types.KindInt64}, {Name: "d", Type: types.KindInt64},
	}})
	empty := storage.NewStore(cat)
	if tx := c.Begin(chainPlan(t, st, 1), empty); tx != nil {
		t.Fatal("empty table began a transaction")
	}
}

// TestEntriesShareTableSignature admits several entries over one partition
// set and requires them to hold one copy of its signature, not one each;
// after an append the next entry takes the new signature, and the entries
// taken under the old one are invalidated as before.
func TestEntriesShareTableSignature(t *testing.T) {
	st := testStore(t)
	c := New(1 << 20)
	var fps []string
	for lim := int64(1); lim <= 3; lim++ {
		tx := c.Begin(chainPlan(t, st, lim), st)
		rows, bytes := rowsOfBytes(2, 8)
		if admitted, _ := tx.Offer(rows, bytes, CostMetrics{RowsScanned: 1 << 20}); !admitted {
			t.Fatalf("offer %d rejected", lim)
		}
		fps = append(fps, tx.fp)
	}
	first := c.entries[fps[0]].sig
	for _, fp := range fps[1:] {
		if sig := c.entries[fp].sig; sig != first || unsafe.StringData(sig) != unsafe.StringData(first) {
			t.Fatal("entries over one partition set hold separate signature copies")
		}
	}
	if err := st.Append("f", [][]types.Value{{types.Int(1), types.Int(99), types.Int(7)}}); err != nil {
		t.Fatal(err)
	}
	tx := c.Begin(chainPlan(t, st, 4), st)
	rows, bytes := rowsOfBytes(2, 8)
	if admitted, _ := tx.Offer(rows, bytes, CostMetrics{RowsScanned: 1 << 20}); !admitted {
		t.Fatal("offer after append rejected")
	}
	if c.entries[tx.fp].sig == first {
		t.Fatal("entry after an append kept the old signature")
	}
	if _, ok := c.Begin(chainPlan(t, st, 1), st).Lookup(); ok {
		t.Fatal("entry taken before the append still hits")
	}
}
