package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/engine"
	"repro/internal/storage"
	"repro/internal/testgen"
	"repro/internal/types"
)

// testStore is the shared small test dataset (built once; stores are
// immutable after load except via Load, which these tests never call).
var (
	storeOnce sync.Once
	store     *storage.Store
	storeErr  error
)

func testStore(t testing.TB) *storage.Store {
	storeOnce.Do(func() { store, storeErr = testgen.NewStore(20260808, 500) })
	if storeErr != nil {
		t.Fatal(storeErr)
	}
	return store
}

// exactRows renders rows byte-exactly (float payloads as IEEE bits), so
// equality means the results are truly identical.
func exactRows(rows [][]types.Value) string {
	var b strings.Builder
	for _, row := range rows {
		for j, v := range row {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d:%v:%d:%x:%q", v.Kind, v.Null, v.I, math.Float64bits(v.F), v.S)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// waitQueued blocks until n items sit in the server's queues (the server
// must be stopped, so nothing drains them).
func waitQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		q := s.queued
		s.mu.Unlock()
		if q >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d items (at %d)", n, q)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitMatchesSolo(t *testing.T) {
	st := testStore(t)
	solo := engine.OpenWithStore(st, engine.Config{})
	eng := engine.OpenWithStore(st, engine.Config{})
	defer eng.Close()
	s := New(eng, Config{})
	defer s.Shutdown(context.Background())

	for seed := int64(0); seed < 12; seed++ {
		q := testgen.New(seed).Query()
		want, err := solo.Query(q)
		if err != nil {
			t.Fatalf("solo seed %d: %v\n%s", seed, err, q)
		}
		got, err := s.Submit(context.Background(), "acme", q)
		if err != nil {
			t.Fatalf("service seed %d: %v\n%s", seed, err, q)
		}
		if exactRows(got.Rows) != exactRows(want.Rows) {
			t.Fatalf("seed %d: service rows differ from solo\n%s", seed, q)
		}
		if got.Metrics.Storage.BytesScanned != want.Metrics.Storage.BytesScanned {
			t.Fatalf("seed %d: BytesScanned %d != solo %d", seed,
				got.Metrics.Storage.BytesScanned, want.Metrics.Storage.BytesScanned)
		}
	}
}

func TestQueueFullRejects(t *testing.T) {
	eng := engine.OpenWithStore(testStore(t), engine.Config{})
	defer eng.Close()
	s := newStopped(eng, Config{QueueDepth: 2}) // dispatcher never runs

	var wg sync.WaitGroup
	errs := make([]error, 2)
	ctx, cancel := context.WithCancel(context.Background())
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Submit(ctx, "a", "SELECT f_qty FROM fact")
		}(i)
	}
	waitQueued(t, s, 2)
	if _, err := s.Submit(context.Background(), "a", "SELECT f_qty FROM fact"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow Submit err = %v, want ErrQueueFull", err)
	}
	s.mu.Lock()
	if got := s.stats.rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	s.mu.Unlock()
	cancel()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("queued submit %d err = %v, want context.Canceled", i, err)
		}
	}
}

func TestQueueTimeout(t *testing.T) {
	eng := engine.OpenWithStore(testStore(t), engine.Config{})
	defer eng.Close()
	s := newStopped(eng, Config{QueueTimeout: 20 * time.Millisecond})

	start := time.Now()
	_, err := s.Submit(context.Background(), "a", "SELECT f_qty FROM fact")
	if !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("err = %v, want ErrQueueTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("timed out after %v, before the 20ms QueueTimeout", elapsed)
	}
	s.mu.Lock()
	if s.queued != 0 {
		t.Errorf("timed-out item left in queue (queued = %d)", s.queued)
	}
	s.mu.Unlock()
}

// TestWRRFairnessOrder floods one tenant's queue and checks weighted
// round-robin keeps a light tenant's queries interleaved instead of stuck
// behind the flood. The backlog is enqueued before the dispatcher starts,
// so the dispatch order is a property of the scheduler, not of timing.
func TestWRRFairnessOrder(t *testing.T) {
	eng := engine.OpenWithStore(testStore(t), engine.Config{})
	defer eng.Close()
	const flood, light = 60, 6
	s := newStopped(eng, Config{
		QueueDepth:        flood + light,
		TenantConcurrency: flood + light, // caps must not bind
		MaxDispatch:       4,
	})

	var wg sync.WaitGroup
	submit := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.Submit(context.Background(), tenant, "SELECT f_qty FROM fact WHERE f_qty > 3"); err != nil {
					t.Errorf("%s submit: %v", tenant, err)
				}
			}()
		}
	}
	submit("flood", flood)
	submit("light", light)
	waitQueued(t, s, flood+light)
	s.start()
	wg.Wait()

	order := s.Stats().DispatchOrder
	if len(order) != flood+light {
		t.Fatalf("dispatched %d, want %d", len(order), flood+light)
	}
	last := -1
	for i, tenant := range order {
		if tenant == "light" {
			last = i
		}
	}
	// Equal weights: each WRR cycle takes one query per tenant, so the
	// light tenant's 6 queries dispatch within ~6 cycles (12 queries) plus
	// one round of slack — far before the flood drains.
	if bound := 2*light + s.cfg.MaxDispatch; last > bound {
		t.Fatalf("light tenant's last dispatch at position %d, want <= %d (starved behind flood)\norder: %v",
			last, bound, order)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestWeightedShares checks a weight-2 tenant dispatches twice as often as
// a weight-1 tenant while both have backlog.
func TestWeightedShares(t *testing.T) {
	eng := engine.OpenWithStore(testStore(t), engine.Config{})
	defer eng.Close()
	const each = 30
	s := newStopped(eng, Config{
		QueueDepth:        2 * each,
		TenantConcurrency: 2 * each,
		MaxDispatch:       3,
		Weights:           map[string]int{"gold": 2, "bronze": 1},
	})
	var wg sync.WaitGroup
	for _, tenant := range []string{"gold", "bronze"} {
		for i := 0; i < each; i++ {
			tenant := tenant
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.Submit(context.Background(), tenant, "SELECT f_k1 FROM fact"); err != nil {
					t.Errorf("%s submit: %v", tenant, err)
				}
			}()
		}
	}
	waitQueued(t, s, 2*each)
	s.start()
	wg.Wait()

	// While both tenants have backlog (the first 45 dispatches: bronze's
	// 30th arrives only after gold's 30 are done), gold should get ~2/3.
	order := s.Stats().DispatchOrder
	gold := 0
	for _, tenant := range order[:45] {
		if tenant == "gold" {
			gold++
		}
	}
	if gold < 27 || gold > 33 {
		t.Fatalf("gold got %d of first 45 dispatches, want ~30 (2:1 weights)\norder: %v", gold, order)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServiceFedSharedExecution proves the service's dispatch rounds feed
// the cross-query fusion window: two eligible queries from different
// connections' tenants land in one announced round and come back fused,
// with rows byte-identical to solo runs.
func TestServiceFedSharedExecution(t *testing.T) {
	st := testStore(t)
	solo := engine.OpenWithStore(st, engine.Config{})
	eng := engine.OpenWithStore(st, engine.Config{
		ShareExec:       true,
		AdmissionWindow: 250 * time.Millisecond, // backstop; the round seals the window
	})
	defer eng.Close()
	const q = "SELECT f_k1, f_qty FROM fact WHERE f_qty > 5"
	want, err := solo.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	s := newStopped(eng, Config{MaxDispatch: 2})
	results := make([]*engine.Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, tenant := range []string{"t1", "t2"} {
		wg.Add(1)
		go func(i int, tenant string) {
			defer wg.Done()
			results[i], errs[i] = s.Submit(context.Background(), tenant, q)
		}(i, tenant)
	}
	waitQueued(t, s, 2)
	s.start()
	wg.Wait()

	for i := range results {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if exactRows(results[i].Rows) != exactRows(want.Rows) {
			t.Fatalf("client %d: fused rows differ from solo", i)
		}
		sh := results[i].Metrics.SharedExec
		if sh.FusedPlans < 2 {
			t.Fatalf("client %d: FusedPlans = %d, want >= 2 (round did not fuse)\nstamp: %+v", i, sh.FusedPlans, sh)
		}
		if sh.BatchedQueries != 2 {
			t.Fatalf("client %d: BatchedQueries = %d, want 2", i, sh.BatchedQueries)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestMemoryContentionQueues pins most of the engine's memory budget from
// outside, submits a query that therefore cannot reserve its hash state,
// and frees the budget once the query has provably failed at least one
// attempt: the service must keep the query waiting and deliver its result
// instead of surfacing ErrMemoryExceeded.
func TestMemoryContentionQueues(t *testing.T) {
	st := testStore(t)
	eng := engine.OpenWithStore(st, engine.Config{MemoryLimitBytes: 64 << 10})
	defer eng.Close()
	s := New(eng, Config{})
	defer s.Shutdown(context.Background())

	const q = "SELECT d_grp, COUNT(*) FROM fact JOIN dim ON f_k1 = d_k GROUP BY d_grp"
	solo := engine.OpenWithStore(st, engine.Config{})
	want, err := solo.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	// Occupy all but a sliver of the budget so the join build cannot fit.
	hog := eng.MemPool().NewTracker("hog")
	if err := hog.Reserve("hog", 63<<10); err != nil {
		t.Fatalf("hog reserve: %v", err)
	}
	sawExceeded := make(chan struct{})
	go func() {
		// Release only after the pool has been driven to exhaustion at
		// least once (the query attempt failed and is now waiting).
		<-sawExceeded
		hog.Close()
	}()
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if eng.MemPool().Used() >= 63<<10 && s.Stats().Dispatched > 0 {
				// The query has dispatched against a full pool; give it a
				// moment to fail its first attempt, then free the budget.
				time.Sleep(20 * time.Millisecond)
				close(sawExceeded)
				return
			}
			time.Sleep(time.Millisecond)
		}
		close(sawExceeded)
	}()

	res, err := s.Submit(context.Background(), "a", q)
	if err != nil {
		t.Fatalf("Submit = %v, want queued-then-success (not ErrMemoryExceeded)", err)
	}
	if exactRows(res.Rows) != exactRows(want.Rows) {
		t.Fatalf("retried query rows differ from solo")
	}
}

// TestMemoryExceededAloneFails submits a query whose join build exceeds the
// engine's budget on its own while other memory stays pinned: waiting for
// that memory cannot help, so the service must fail the query with
// ErrMemoryExceeded at once rather than hold it until its deadline.
func TestMemoryExceededAloneFails(t *testing.T) {
	st := testStore(t)
	eng := engine.OpenWithStore(st, engine.Config{MemoryLimitBytes: 1536})
	defer eng.Close()
	s := New(eng, Config{})
	defer s.Shutdown(context.Background())

	hog := eng.MemPool().NewTracker("hog")
	if err := hog.Reserve("hog", 512); err != nil {
		t.Fatalf("hog reserve: %v", err)
	}
	defer hog.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := s.Submit(ctx, "a", "SELECT d_grp, COUNT(*) FROM fact JOIN dim ON f_k1 = d_k GROUP BY d_grp")
	if !errors.Is(err, engine.ErrMemoryExceeded) {
		t.Fatalf("Submit = %v, want ErrMemoryExceeded", err)
	}
	if ctx.Err() != nil {
		t.Fatalf("the query waited out its deadline for memory that could not help it")
	}
}

// TestShutdownDrains submits a backlog, shuts down mid-flight, and checks
// every accepted query still got its exact result while later submissions
// are rejected.
func TestShutdownDrains(t *testing.T) {
	st := testStore(t)
	solo := engine.OpenWithStore(st, engine.Config{})
	eng := engine.OpenWithStore(st, engine.Config{})
	defer eng.Close()
	const q = "SELECT f_tag, SUM(f_qty) FROM fact GROUP BY f_tag"
	want, err := solo.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	s := newStopped(eng, Config{QueueDepth: 32})
	const n = 16
	results := make([]*engine.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Submit(context.Background(), fmt.Sprintf("t%d", i%3), q)
		}(i)
	}
	waitQueued(t, s, n)
	s.start()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("drained query %d failed: %v", i, errs[i])
		}
		if exactRows(results[i].Rows) != exactRows(want.Rows) {
			t.Fatalf("drained query %d: rows differ from solo", i)
		}
	}
	if _, err := s.Submit(context.Background(), "a", q); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-shutdown Submit err = %v, want ErrClosed", err)
	}
}
