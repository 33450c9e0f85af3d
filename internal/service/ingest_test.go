package service

import (
	"context"
	"errors"
	"testing"

	"repro/engine"
	"repro/internal/rescache"
	"repro/internal/testgen"
	"repro/internal/types"
)

// TestIngestOverWire drives the full remote write path: a client appends
// rows over the wire (lossless values, NULLs and float bit patterns
// included), the server publishes them through the engine, the result
// cache's pre-append entry is invalidated, and subsequent queries on any
// connection see the new data byte-identically to an in-process run.
func TestIngestOverWire(t *testing.T) {
	st, err := testgen.NewStore(20260808, 300)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.OpenWithStore(st, engine.Config{ResultCacheBytes: 1 << 20})
	srv := New(eng, Config{})
	ns := NewNetServer(srv)
	if err := ns.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer ns.Shutdown(context.Background())

	cl, err := Dial(ns.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	const q = "SELECT COUNT(*) AS c, SUM(f_qty) AS s FROM fact WHERE f_qty > 10"

	// Warm-up: the cache's first sight of q builds it uncaptured, so the
	// first wire query below is the capturing one.
	warm, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if rc := warm.Metrics.ResultCache; rc.Misses != 1 || rc.Deferred != 1 || rc.AdmissionRejects != 0 {
		t.Fatalf("first sight: ResultCache = %+v, want one deferred miss", rc)
	}
	if n, _ := rescache.For(st, 1<<20).Stats(); n != 0 {
		t.Fatalf("first sight admitted %d entries", n)
	}

	r1, err := cl.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cl.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Metrics.ResultCacheHits == 0 {
		t.Fatal("repeat query over the wire reported no result-cache hit")
	}
	before := exactRows(r1.Rows)
	if got := exactRows(r2.Rows); got != before {
		t.Fatalf("cached wire result differs:\n%s\nvs\n%s", got, before)
	}

	rows := [][]types.Value{
		{types.Int(2), types.Int(9), types.Int(60), types.Float(12.25), types.String("alpha"), types.Int(1)},
		{types.Int(5), types.NullOf(types.KindInt64), types.Int(33), types.NullOf(types.KindFloat64), types.String(""), types.Int(4)},
	}
	if err := cl.Ingest(ctx, "fact", rows); err != nil {
		t.Fatalf("ingest: %v", err)
	}

	r3, err := cl.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Metrics.ResultCacheHits != 0 {
		t.Fatalf("post-ingest query hit a stale entry: %+v", r3.Metrics)
	}
	after := exactRows(r3.Rows)
	if after == before {
		t.Fatal("ingest did not change the aggregate — invalidation is vacuous")
	}
	inProc, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := exactRows(inProc.Rows); after != want {
		t.Fatalf("wire result diverged from in-process run:\n%s\nvs\n%s", after, want)
	}

	// Errors surface: unknown table, then a mistyped row.
	if err := cl.Ingest(ctx, "nope", rows); err == nil {
		t.Fatal("ingest to unknown table succeeded")
	}
	bad := [][]types.Value{{types.String("x"), types.Int(0), types.Int(0), types.Float(0), types.String(""), types.Int(0)}}
	if err := cl.Ingest(ctx, "fact", bad); err == nil {
		t.Fatal("mistyped ingest row accepted")
	}
}

// TestIngestAfterShutdown verifies a draining server refuses new appends
// with the retriable "closed" classification.
func TestIngestAfterShutdown(t *testing.T) {
	st, err := testgen.NewStore(20260808, 50)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.OpenWithStore(st, engine.Config{})
	srv := New(eng, Config{})
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	err = srv.Ingest("fact", [][]engine.Value{
		{engine.Int(1), engine.Int(1), engine.Int(1), engine.Float(1), engine.String("x"), engine.Int(0)},
	})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest after shutdown = %v, want ErrClosed", err)
	}
}
