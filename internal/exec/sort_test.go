package exec

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/memctl"
	"repro/internal/storage"
	"repro/internal/types"
)

// sortRunStats drains plan under opts with a private memory pool and
// reports the rendered rows, the sort's run mix (spill-file cursors and
// in-memory cursors; one in-memory run when it took the plain batcher), and
// the pool's Used() after the drain, before the executor closes. The pool
// holds only this run's tracker, so its Used() is the tracker's too.
func sortRunStats(t *testing.T, st *storage.Store, plan logical.Operator, opts Options, limit int64) (rows string, files, mem int, used int64) {
	t.Helper()
	dir := t.TempDir()
	opts.MemPool = memctl.NewPool(limit, dir)
	ex := newExecutor(st, opts.withDefaults())
	defer ex.close()
	bi, err := ex.build(plan)
	if err != nil {
		t.Fatalf("opts %+v: %v", opts, err)
	}
	it, ok := bi.(*sortIter)
	if !ok {
		t.Fatalf("plan root built as %T, want *sortIter", bi)
	}
	res := &Result{}
	width := len(plan.Schema())
	for {
		b, err := it.NextBatch()
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if b == nil {
			break
		}
		for i := 0; i < b.Len(); i++ {
			row := make(Row, width)
			b.Gather(i, row)
			res.Rows = append(res.Rows, row)
		}
	}
	if it.merge == nil {
		mem = 1
	} else {
		for _, c := range it.merge.cursors {
			if c.file != nil {
				files++
			} else {
				mem++
			}
		}
	}
	used = opts.MemPool.Used()
	ex.close()
	if ents, err := os.ReadDir(dir); err != nil {
		t.Fatal(err)
	} else if len(ents) != 0 {
		t.Fatalf("opts %+v: %d spill files leaked", opts, len(ents))
	}
	return renderResult(res), files, mem, used
}

// TestSortParallelRuns checks the sort's parallel in-memory runs against a
// Parallelism 1 run of the same plan (one run, the plain batcher): equal
// keys spanning run boundaries must keep input order, NULLs must sort last
// ascending and first descending, and a forced spill must merge file runs
// with in-memory runs. Every run must return its whole reservation by the
// end of the drain.
func TestSortParallelRuns(t *testing.T) {
	st := parallelFixture(t)
	type key struct {
		col  string
		desc bool
	}
	sortBy := func(filter bool, keys ...key) func() logical.Operator {
		return func() logical.Operator {
			s := scanOf(t, st, "f")
			var in logical.Operator = s
			if filter {
				in = logical.NewFilter(s, expr.NewBinary(expr.OpGe, expr.Ref(s.ColumnFor("uniq")), expr.Lit(types.Int(40))))
			}
			sk := make([]logical.SortKey, len(keys))
			for i, k := range keys {
				sk[i] = logical.SortKey{E: expr.Ref(s.ColumnFor(k.col)), Desc: k.desc}
			}
			return &logical.Sort{Input: in, Keys: sk}
		}
	}
	cases := []struct {
		name string
		plan func() logical.Operator
	}{
		// One key value: the output is the input order, across every run.
		{"constant_key", sortBy(false, key{"one", false})},
		// Three key values, each spread over every run.
		{"equal_keys_asc", sortBy(false, key{"small", false})},
		{"equal_keys_desc", sortBy(false, key{"small", true})},
		{"nulls_asc", sortBy(false, key{"nk", false})},
		{"nulls_desc", sortBy(false, key{"nk", true}, key{"small", false})},
		// Over a fused chain: the sort drains the morsel-parallel pipeline.
		{"over_chain", sortBy(true, key{"small", true}, key{"nk", false})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, _, _, used := sortRunStats(t, st, tc.plan(), Options{Parallelism: 1, BatchSize: 7}, 0)
			if used != 0 {
				t.Fatalf("reference left %d bytes reserved", used)
			}
			for _, p := range []int{3, 4} {
				for _, limit := range []int64{0, 40 << 10} {
					desc := fmt.Sprintf("p%d limit %d", p, limit)
					got, files, mem, used := sortRunStats(t, st, tc.plan(), Options{Parallelism: p, BatchSize: 7}, limit)
					if got != want {
						t.Fatalf("%s: rows differ from Parallelism 1\ngot:\n%s\nwant:\n%s", desc, got, want)
					}
					if used != 0 {
						t.Fatalf("%s: %d bytes still reserved after the drain", desc, used)
					}
					if mem < 2 {
						t.Fatalf("%s: %d in-memory run(s), want the rows cut into several", desc, mem)
					}
					if limit > 0 && files == 0 {
						t.Fatalf("%s: no spill run — the limit no longer forces one", desc)
					}
				}
			}
		})
	}
}
