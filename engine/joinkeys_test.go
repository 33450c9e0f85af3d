package engine

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/types"
)

// TestMixedIntFloatJoinKeys pins that a BIGINT = DOUBLE equi-join compares
// as DOUBLE, exactly like the same predicate under a nested-loop join
// (spelled as x <= y AND x >= y, which no hash join can take): inner and
// LEFT with either side building, and IN (a semi join) against the probe
// rows the nested-loop join matches, at one and four shards. The data hold
// int 0 against +0.0, duplicate and NULL keys, and a double no int equals.
func TestMixedIntFloatJoinKeys(t *testing.T) {
	cat := NewCatalog()
	cat.MustAdd(&Table{Name: "a", Columns: []Column{{Name: "x", Type: KindInt64}}})
	cat.MustAdd(&Table{Name: "b", Columns: []Column{{Name: "y", Type: KindFloat64}}})
	pairs := [][2]string{
		{"SELECT x, y FROM a, b WHERE x = y", "SELECT x, y FROM a, b WHERE x <= y AND x >= y"},
		{"SELECT y, x FROM b, a WHERE y = x", "SELECT y, x FROM b, a WHERE y <= x AND y >= x"},
		{"SELECT x, y FROM a LEFT JOIN b ON x = y", "SELECT x, y FROM a LEFT JOIN b ON x <= y AND x >= y"},
		{"SELECT y, x FROM b LEFT JOIN a ON y = x", "SELECT y, x FROM b LEFT JOIN a ON y <= x AND y >= x"},
	}
	// Each IN query, the probe side's rows, and the nested-loop join whose
	// first column lists the probe keys that match.
	semis := [][3]string{
		{"SELECT x FROM a WHERE x IN (SELECT y FROM b)", "SELECT x FROM a", pairs[0][1]},
		{"SELECT y FROM b WHERE y IN (SELECT x FROM a)", "SELECT y FROM b", pairs[1][1]},
	}
	for _, par := range []int{1, 4} {
		eng := Open(cat, Config{Parallelism: par})
		if err := eng.Load("a", [][]Value{{Int(0)}, {Int(1)}, {Int(2)}, {Int(3)}, {types.NullOf(KindInt64)}, {Int(2)}}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Load("b", [][]Value{{Float(0)}, {Float(2)}, {Float(3.5)}, {Float(2)}, {types.NullOf(KindFloat64)}}); err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			got, want := sortedRows(t, eng, p[0]), sortedRows(t, eng, p[1])
			if !slices.Equal(got, want) {
				t.Errorf("parallelism %d: %s\n got  %v\n want %v (%s)", par, p[0], got, want, p[1])
			}
		}
		for _, q := range semis {
			matched := map[string]bool{}
			for _, r := range sortedRows(t, eng, q[2]) {
				matched[strings.Split(r, ",")[0]] = true
			}
			var want []string
			for _, r := range sortedRows(t, eng, q[1]) {
				if matched[r] {
					want = append(want, r)
				}
			}
			if got := sortedRows(t, eng, q[0]); !slices.Equal(got, want) {
				t.Errorf("parallelism %d: %s\n got  %v\n want %v", par, q[0], got, want)
			}
		}
		// The inner join matches 0 with 0.0 and each of two 2s with each of
		// two 2.0s.
		if got := sortedRows(t, eng, pairs[0][0]); len(got) != 5 {
			t.Errorf("parallelism %d: inner join gave %d rows, want 5: %v", par, len(got), got)
		}
		eng.Close()
	}
}

// sortedRows runs q and renders each row as one string, sorted.
func sortedRows(t *testing.T, eng *Engine, q string) []string {
	t.Helper()
	res, err := eng.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, ",")
	}
	slices.Sort(out)
	return out
}
