package exec

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/rescache"
	"repro/internal/types"
)

// TestResultCacheCaptureRows checks what the capture tee offers the cache
// when its input arrives in several batches, the last one partial: every
// streamed row in emission order, each row exactly as wide as the schema
// with no spare capacity (so no consumer can append into a neighbour in the
// shared slab), and the entry's Bytes the sum of RowBytes over those rows.
func TestResultCacheCaptureRows(t *testing.T) {
	st := skipFixture(t, []int64{1})
	opts := Options{Parallelism: 2, BatchSize: 3, ResultCacheBytes: 1 << 20}
	mk := func() logical.Operator {
		s := scanOf(t, st, "fact")
		return logical.NewFilter(s, expr.NewBinary(expr.OpGe, expr.Ref(s.ColumnFor("f_w")), expr.Lit(types.Int(20))))
	}
	res, err := RunWith(mk(), st, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ResultCache.Misses != 1 || res.Metrics.ResultCache.AdmissionRejects != 0 {
		t.Fatalf("capture run: %+v", res.Metrics.ResultCache)
	}
	if len(res.Rows) <= opts.BatchSize || len(res.Rows)%opts.BatchSize == 0 {
		t.Fatalf("%d rows do not span several batches with a partial last one", len(res.Rows))
	}
	tx := rescache.For(st, opts.ResultCacheBytes).Begin(mk(), st)
	ent, ok := tx.Lookup()
	if !ok {
		t.Fatal("captured result was not admitted")
	}
	if rowsKey(ent.Rows) != rowsKey(res.Rows) {
		t.Fatal("captured rows differ from the streamed rows")
	}
	width := len(mk().Schema())
	var bytes int64
	for i, row := range ent.Rows {
		if len(row) != width || cap(row) != width {
			t.Fatalf("row %d: len %d cap %d, want both %d", i, len(row), cap(row), width)
		}
		bytes += rescache.RowBytes(row)
	}
	if ent.Bytes != bytes {
		t.Fatalf("entry accounts %d bytes, rows hold %d", ent.Bytes, bytes)
	}
}
