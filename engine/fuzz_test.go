package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/testgen"
	"repro/internal/tpcds"
)

// This file generates randomized SQL around the paper's patterns — a random
// common expression reused by UNION ALL branches, self joins on grouping
// keys, scalar-subquery comparisons — and asserts that baseline, fused, and
// spooled engines agree on every query. It is the SQL-level analogue of the
// plan-level Fuse contract property test.

// randomCommonCTE builds a random aggregation over a fact table.
func randomCommonCTE(rng *rand.Rand) (cte string, keyCol string, aggCol string) {
	tables := []struct {
		from    string
		key     string
		measure string
		filter  string
	}{
		{"store_sales", "ss_store_sk", "ss_sales_price", "ss_quantity"},
		{"store_sales", "ss_item_sk", "ss_net_profit", "ss_quantity"},
		{"catalog_sales", "cs_bill_customer_sk", "cs_list_price", "cs_quantity"},
		{"web_sales", "ws_item_sk", "ws_list_price", "ws_quantity"},
		{"store_returns", "sr_store_sk", "sr_return_amt", "sr_customer_sk"},
	}
	tb := tables[rng.Intn(len(tables))]
	fn := []string{"SUM", "AVG", "MIN", "MAX"}[rng.Intn(4)]
	lo := rng.Intn(50)
	hi := lo + 10 + rng.Intn(40)
	cte = fmt.Sprintf(
		"SELECT %s AS k, %s(%s) AS v FROM %s WHERE %s BETWEEN %d AND %d GROUP BY %s",
		tb.key, fn, tb.measure, tb.from, tb.filter, lo, hi, tb.key)
	return cte, "k", "v"
}

// randomQuery wraps a random common expression in one of the paper's reuse
// patterns.
func randomQuery(rng *rand.Rand) string {
	cte, key, val := randomCommonCTE(rng)
	switch rng.Intn(4) {
	case 0: // UNION ALL over the same CTE with different predicates (§IV.D)
		t1 := 10 + rng.Intn(90)
		t2 := 10 + rng.Intn(90)
		return fmt.Sprintf(`WITH c AS (%s)
			SELECT %s FROM c WHERE %s > %d
			UNION ALL
			SELECT %s FROM c WHERE %s <= %d`,
			cte, key, val, t1, key, val, t2)
	case 1: // self join on the grouping key (§IV.B)
		return fmt.Sprintf(`WITH c AS (%s)
			SELECT a.%s, a.%s, b.%s FROM c a, c b
			WHERE a.%s = b.%s AND a.%s > b.%s * 0.5
			ORDER BY a.%s LIMIT 50`,
			cte, key, val, val, key, key, val, val, key)
	case 2: // aggregate joined back through a correlated subquery (§IV.A)
		return fmt.Sprintf(`WITH c AS (%s)
			SELECT c1.%s FROM c c1
			WHERE c1.%s > (SELECT AVG(%s) FROM c c2 WHERE c2.%s = c1.%s)
			ORDER BY c1.%s LIMIT 50`,
			cte, key, val, val, key, key, key)
	default: // scalar aggregates over overlapping subsets (§V.B)
		lo1, lo2 := rng.Intn(40), rng.Intn(40)
		return fmt.Sprintf(`SELECT
			(SELECT COUNT(*) FROM store_sales WHERE ss_quantity > %d) AS a,
			(SELECT AVG(ss_net_profit) FROM store_sales WHERE ss_quantity > %d) AS b,
			(SELECT MAX(ss_list_price) FROM store_sales WHERE ss_quantity > %d) AS c
			FROM reason WHERE r_reason_sk = 1`,
			lo1, lo2, lo1)
	}
}

func TestRandomizedThreeWayEquivalence(t *testing.T) {
	st, err := tpcds.NewLoadedStore(0.03, 99)
	if err != nil {
		t.Fatal(err)
	}
	modes := []struct {
		name string
		eng  *Engine
	}{
		{"baseline", OpenWithStore(st, Config{})},
		{"fused", OpenWithStore(st, Config{EnableFusion: true})},
		{"spooled", OpenWithStore(st, Config{EnableSpooling: true})},
		{"fused+spooled", OpenWithStore(st, Config{EnableFusion: true, EnableSpooling: true})},
	}

	rng := rand.New(rand.NewSource(20220513)) // the paper's ICDE publication week
	fusedChanged := 0
	for i := 0; i < 60; i++ {
		query := randomQuery(rng)
		var want []string
		for _, m := range modes {
			res, err := m.eng.Query(query)
			if err != nil {
				t.Fatalf("query %d (%s) failed: %v\n%s", i, m.name, err, query)
			}
			got := canonicalRows(res.Rows)
			if m.name == "baseline" {
				want = got
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("query %d: %s returned %d rows, baseline %d\n%s\nplan:\n%s",
					i, m.name, len(got), len(want), query, res.Plan)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("query %d: %s row %d differs\n  baseline: %s\n  %s: %s\n%s\nplan:\n%s",
						i, m.name, j, want[j], m.name, got[j], query, res.Plan)
				}
			}
			if m.name == "fused" && len(res.RulesFired) > 0 {
				fusedChanged++
			}
		}
	}
	if fusedChanged < 30 {
		t.Errorf("fusion only changed %d/60 random queries; generator drifted", fusedChanged)
	}
	t.Logf("3-way equivalence on 60 random queries; fusion fired on %d", fusedChanged)
}

// FuzzQueryNoPanic feeds arbitrary SQL to Query over the testgen store. A
// malformed or ill-typed statement must come back as an error: nothing in
// the engine recovers a panic, so one would take down a server and every
// tenant on it.
func FuzzQueryNoPanic(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(testgen.New(seed).Query())
	}
	for _, q := range []string{
		"SELECT f_k1 FROM fact WHERE f_k1 IN (SELECT d_name FROM dim)",
		"SELECT(0)FROM fACt WHERE(00BETWEEN 0AND'')",
	} {
		f.Add(q)
	}
	eng := OpenWithStore(diffTestStore(f), Config{})
	f.Cleanup(func() { eng.Close() })
	f.Fuzz(func(t *testing.T, sql string) {
		eng.Query(sql) // errors are fine; a panic fails the target
	})
}
