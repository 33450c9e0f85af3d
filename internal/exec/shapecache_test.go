package exec

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/storage"
	"repro/internal/types"
)

// chainPlan builds a fresh Scan→Filter chain over sales with a prunable
// partition predicate (s_date < dateLt) and a residual (s_qty > qtyGt).
// Each call binds fresh columns, as independently planned queries do.
func chainPlan(t *testing.T, st *storage.Store, dateLt, qtyGt int64) logical.Operator {
	t.Helper()
	s := scanOf(t, st, "sales")
	return logical.NewFilter(s, expr.And(
		expr.NewBinary(expr.OpLt, expr.Ref(s.ColumnFor("s_date")), expr.Lit(types.Int(dateLt))),
		expr.NewBinary(expr.OpGt, expr.Ref(s.ColumnFor("s_qty")), expr.Lit(types.Int(qtyGt))),
	))
}

func TestShapeCacheMatchesUncached(t *testing.T) {
	st := fixture(t)
	c := NewShapeCache()

	plan := chainPlan(t, st, 2, 3)
	want, ok, err := AnalyzeChain(plan, st)
	if err != nil || !ok {
		t.Fatalf("uncached AnalyzeChain: ok=%v err=%v", ok, err)
	}
	got, ok, err := c.AnalyzeChain(plan, st)
	if err != nil || !ok {
		t.Fatalf("cached AnalyzeChain: ok=%v err=%v", ok, err)
	}
	if *got != *want {
		t.Fatalf("cached shape %+v != uncached %+v", *got, *want)
	}
	if c.Hits() != 0 || c.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d, want 0/1", c.Hits(), c.Misses())
	}

	// An independently bound plan of the same shape (fresh column IDs)
	// must hit and produce the identical analysis.
	again, ok, err := c.AnalyzeChain(chainPlan(t, st, 2, 3), st)
	if err != nil || !ok {
		t.Fatalf("second AnalyzeChain: ok=%v err=%v", ok, err)
	}
	if *again != *want {
		t.Fatalf("hit shape %+v != uncached %+v", *again, *want)
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", c.Hits(), c.Misses())
	}
}

func TestShapeCacheDistinguishesShapes(t *testing.T) {
	st := fixture(t)
	c := NewShapeCache()
	a, _, err := c.AnalyzeChain(chainPlan(t, st, 2, 3), st)
	if err != nil {
		t.Fatal(err)
	}
	// Different prune constant → different fingerprint → fresh analysis
	// with a different partition charge.
	b, _, err := c.AnalyzeChain(chainPlan(t, st, 1, 3), st)
	if err != nil {
		t.Fatal(err)
	}
	if c.Misses() != 2 {
		t.Fatalf("misses = %d, want 2 (distinct prune shapes shared an entry)", c.Misses())
	}
	if a.Storage.BytesScanned == b.Storage.BytesScanned && a.PrunedRows == b.PrunedRows {
		t.Fatalf("distinct prunes produced identical charges: %+v vs %+v", a.Storage, b.Storage)
	}
	// A different residual over the same prune shares the partition walk:
	// the residual is not part of the prune fingerprint only if it stays
	// out of the pruning predicate — which it does (s_qty is not the
	// partition column), so this is a hit.
	before := c.Hits()
	if _, _, err := c.AnalyzeChain(chainPlan(t, st, 2, 99), st); err != nil {
		t.Fatal(err)
	}
	if c.Hits() != before+1 {
		t.Fatalf("same-prune different-residual chain missed (hits %d, want %d)", c.Hits(), before+1)
	}
}

func TestShapeCacheEpochInvalidation(t *testing.T) {
	st := fixture(t)
	c := NewShapeCache()
	before, _, err := c.AnalyzeChain(chainPlan(t, st, 3, 0), st)
	if err != nil {
		t.Fatal(err)
	}
	// Reloading the table (Load replaces its data) bumps the store epoch;
	// the cached charge for the old epoch must not be served for the new
	// data.
	var rows [][]types.Value
	for i := 0; i < 6; i++ {
		rows = append(rows, []types.Value{
			types.Int(0), types.Int(0), types.Int(int64(i)), types.Float(1), types.Int(int64(i % 3)),
		})
	}
	if err := st.Load("sales", rows); err != nil {
		t.Fatal(err)
	}
	after, _, err := c.AnalyzeChain(chainPlan(t, st, 3, 0), st)
	if err != nil {
		t.Fatal(err)
	}
	if c.Hits() != 0 || c.Misses() != 2 {
		t.Fatalf("hits/misses = %d/%d, want 0/2 (stale epoch served)", c.Hits(), c.Misses())
	}
	if before.PrunedRows != 12 || after.PrunedRows != 6 {
		t.Fatalf("PrunedRows before/after reload = %d/%d, want 12/6", before.PrunedRows, after.PrunedRows)
	}
	// And the uncached analysis agrees with the cached one on fresh data.
	want, _, err := AnalyzeChain(chainPlan(t, st, 3, 0), st)
	if err != nil {
		t.Fatal(err)
	}
	if *after != *want {
		t.Fatalf("cached %+v != uncached %+v after reload", *after, *want)
	}
}

// TestShapeCacheBounded pins the cache's bound: an Append drops every entry
// of the superseded epoch, and fresh prune literals within one epoch never
// hold more than shapeCacheCap entries.
func TestShapeCacheBounded(t *testing.T) {
	st := fixture(t)
	c := NewShapeCache()
	for d := int64(0); d < 3; d++ {
		if _, _, err := c.AnalyzeChain(chainPlan(t, st, d, 0), st); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(c.entries))
	}
	row := []types.Value{types.Int(0), types.Int(0), types.Int(1), types.Float(1), types.Int(0)}
	if err := st.Append("sales", [][]types.Value{row}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.AnalyzeChain(chainPlan(t, st, 0, 0), st); err != nil {
		t.Fatal(err)
	}
	if len(c.entries) != 1 || c.epoch != st.Epoch() {
		t.Fatalf("after Append: %d entries under epoch %d (store %d), want 1 under the live epoch",
			len(c.entries), c.epoch, st.Epoch())
	}
	for d := int64(0); d <= shapeCacheCap; d++ {
		if _, _, err := c.AnalyzeChain(chainPlan(t, st, 100+d, 0), st); err != nil {
			t.Fatal(err)
		}
		if len(c.entries) > shapeCacheCap {
			t.Fatalf("after %d distinct prune literals: %d entries > cap %d", d+1, len(c.entries), shapeCacheCap)
		}
	}
	// The live epoch's entries still hit.
	before := c.Hits()
	if _, _, err := c.AnalyzeChain(chainPlan(t, st, 100+shapeCacheCap, 0), st); err != nil {
		t.Fatal(err)
	}
	if c.Hits() != before+1 {
		t.Fatal("a live-epoch entry missed after the cap was reached")
	}
}
