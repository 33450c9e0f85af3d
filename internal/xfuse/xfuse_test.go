package xfuse

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/binder"
	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/optimizer"
	"repro/internal/storage"
	"repro/internal/tpcds"
)

// planFor binds and optimizes a statement the way Engine.plan does.
func planFor(t *testing.T, st *storage.Store, sql string) logical.Operator {
	t.Helper()
	bound, _, err := binder.New(st.Catalog()).BindSQL(sql)
	if err != nil {
		t.Fatalf("bind %s: %v", sql, err)
	}
	plan, _ := optimizer.Optimize(bound, optimizer.Options{EnableFusion: true, Required: bound.Schema()})
	if err := logical.Validate(plan); err != nil {
		t.Fatalf("optimize %s: %v", sql, err)
	}
	if !reflect.DeepEqual(plan.Schema(), bound.Schema()) {
		t.Fatalf("%s: optimizer changed the output schema; this helper would need Engine's restoreOutputs", sql)
	}
	return plan
}

// burstTiles is one dashboard refresh of the benchmark's overlap_burst
// shape: scalar aggregates with overlapping quantity ranges, each with its
// own measure and literals, four over store_sales and two over web_sales.
func burstTiles() []string {
	tile := func(table, q, price, m string, lo, hi int, p float64) string {
		return fmt.Sprintf("SELECT COUNT(*) AS n, SUM(%s) AS total, AVG(%s) AS mean FROM %s WHERE %s BETWEEN %d AND %d AND %s <= %.2f",
			m, m, table, q, lo, hi, price, p)
	}
	return []string{
		tile("store_sales", "ss_quantity", "ss_sales_price", "ss_ext_sales_price", 5, 40, 71.25),
		tile("store_sales", "ss_quantity", "ss_sales_price", "ss_net_profit", 12, 55, 120.5),
		tile("store_sales", "ss_quantity", "ss_sales_price", "ss_coupon_amt", 30, 75, 44.1),
		tile("store_sales", "ss_quantity", "ss_sales_price", "ss_list_price", 1, 33, 150),
		tile("web_sales", "ws_quantity", "ws_list_price", "ws_net_profit", 8, 52, 99.9),
		tile("web_sales", "ws_quantity", "ws_list_price", "ws_ext_ship_cost", 21, 66, 60.75),
	}
}

// TestRunnerFusesBurstPerTable submits one burst through an admission
// window: the members fold into one fused plan per table, every member gets
// exactly its solo rows and logical metrics back, and a member whose context
// was cancelled before the window sealed neither joins the fused plans nor
// strands the others.
func TestRunnerFusesBurstPerTable(t *testing.T) {
	st, err := tpcds.NewLoadedStore(0.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	opts := exec.Options{Parallelism: 2}
	tiles := burstTiles()
	plans := make([]logical.Operator, len(tiles))
	solo := make([]*exec.Result, len(tiles))
	for i, q := range tiles {
		plans[i] = planFor(t, st, q)
		if solo[i], err = exec.RunWith(plans[i], st, opts); err != nil {
			t.Fatalf("solo %d: %v", i, err)
		}
		if len(solo[i].Rows) != 1 || solo[i].Rows[0][0].I == 0 {
			t.Fatalf("tile %d selects nothing: %v", i, solo[i].Rows)
		}
	}

	r := NewRunner(st, opts, Config{Window: time.Minute, MaxQueries: 64})
	defer r.Close()
	// The window is sealed by the announced arrival count, never the timer.
	done := r.ExpectArrivals(len(tiles) + 1)
	defer done()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if res, _, err := r.Submit(cancelled, tiles[0], plans[0]); res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled member: res=%v err=%v, want context.Canceled", res, err)
	}

	before := exec.CompileStats()
	results := make([]*exec.Result, len(tiles))
	errs := make([]error, len(tiles))
	var wg sync.WaitGroup
	for i := range tiles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = r.Submit(context.Background(), tiles[i], plans[i])
		}(i)
	}
	wg.Wait()
	after := exec.CompileStats()

	for i, res := range results {
		if errs[i] != nil || res == nil {
			t.Fatalf("member %d was not served by the batch: res=%v err=%v", i, res, errs[i])
		}
		wantFused := int64(4) // the store_sales tiles
		if i >= 4 {
			wantFused = 2 // the web_sales tiles
		}
		want := exec.SharedExecMetrics{BatchedQueries: int64(len(tiles)), FusedPlans: wantFused, WindowWaits: 1}
		if res.Metrics.SharedExec != want {
			t.Errorf("member %d stamp %+v, want %+v", i, res.Metrics.SharedExec, want)
		}
		if !reflect.DeepEqual(res.Rows, solo[i].Rows) {
			t.Errorf("member %d rows %v, solo %v", i, res.Rows, solo[i].Rows)
		}
		if got, want := res.Metrics.Storage.BytesScanned, solo[i].Metrics.Storage.BytesScanned; got != want {
			t.Errorf("member %d BytesScanned %d, solo %d", i, got, want)
		}
		if got, want := res.Metrics.RowsProcessed, solo[i].Metrics.RowsProcessed; got != want {
			t.Errorf("member %d RowsProcessed %d, solo %d", i, got, want)
		}
	}

	// The fused filter and the sink's mask family each carry 3 leaves per
	// member over two columns; the point of the comparison-leaf table is
	// that those siblings share groups and never reach the generic loop.
	groups := after.CompareGroups - before.CompareGroups
	leaves := after.CompareLeaves - before.CompareLeaves
	reruns := after.CompareGenericReruns - before.CompareGenericReruns
	t.Logf("one burst: %d family instantiations, %d comparison groups, %d leaves, %d generic re-runs",
		after.MaskFamilyInstantiations-before.MaskFamilyInstantiations, groups, leaves, reruns)
	if leaves < 3*groups || reruns != 0 {
		t.Errorf("groups=%d leaves=%d re-runs=%d: want ≥3 leaves per group and no re-runs", groups, leaves, reruns)
	}
}

// TestRunnerLoneQueryFallsBackToSolo pins the other half of the contract: a
// window that expires with one member runs nothing and hands the query back
// stamped as having waited.
func TestRunnerLoneQueryFallsBackToSolo(t *testing.T) {
	st, err := tpcds.NewLoadedStore(0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(st, exec.Options{}, Config{Window: 5 * time.Millisecond, MaxQueries: 64})
	defer r.Close()
	q := burstTiles()[0]
	res, stamp, err := r.Submit(context.Background(), q, planFor(t, st, q))
	if res != nil || err != nil {
		t.Fatalf("lone query: res=%v err=%v, want the solo hand-back", res, err)
	}
	if want := (exec.SharedExecMetrics{BatchedQueries: 1, FusedPlans: 1, WindowWaits: 1}); stamp != want {
		t.Fatalf("stamp %+v, want %+v", stamp, want)
	}
}
