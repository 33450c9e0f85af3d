package service

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/engine"
	"repro/internal/types"
)

// TestIllTypedComparisonKeepsServing sends comparisons types.Compare cannot
// order: the binder must reject each as an ordinary error instead of
// letting the first row that reaches the comparison panic the server, and
// the same connection must keep serving.
func TestIllTypedComparisonKeepsServing(t *testing.T) {
	eng := engine.OpenWithStore(testStore(t), engine.Config{})
	defer eng.Close()
	ns := NewNetServer(New(eng, Config{}))
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
	for _, q := range []string{
		"SELECT f_k1 FROM fact WHERE 1 = 'a'",
		"SELECT f_k1 FROM fact WHERE f_k1 = 'a'",
		"SELECT f_k1 FROM fact WHERE f_k1 < 'a'",
		"SELECT f_k1 FROM fact WHERE f_k1 IN ('a', 'b')",
		"SELECT f_k1 FROM fact WHERE f_k1 IN (SELECT d_name FROM dim)",
	} {
		if _, err := cl.Query(ctx, q); err == nil || !strings.Contains(err.Error(), "binder:") {
			t.Errorf("%s: err = %v, want a binder error", q, err)
		}
	}
	res, err := cl.Query(ctx, "SELECT COUNT(*) FROM fact WHERE f_k1 = 1")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("valid query after rejected ones: %v", err)
	}
}

func TestWireValueRoundTrip(t *testing.T) {
	cases := []types.Value{
		types.Int(0),
		types.Int(-(1 << 62)),
		types.Float(0),
		types.Float(math.Copysign(0, -1)), // -0.0 must survive
		types.Float(math.NaN()),
		types.Float(math.Inf(1)),
		types.Float(math.Inf(-1)),
		types.Float(3.141592653589793),
		types.String(""),
		types.String("line\nbreak\tand \"quotes\""),
		types.Bool(true),
		types.Date(19812),
		{Kind: types.KindInt64, Null: true},
		{Kind: types.KindFloat64, Null: true},
	}
	for i, v := range cases {
		got, err := FromWire(ToWire(v))
		if err != nil {
			t.Fatalf("case %d (%+v): %v", i, v, err)
		}
		// Compare bit-exactly: NaN != NaN under ==, so compare payload bits.
		if got.Kind != v.Kind || got.Null != v.Null || got.I != v.I || got.S != v.S ||
			math.Float64bits(got.F) != math.Float64bits(v.F) {
			t.Fatalf("case %d: round-trip %+v -> %+v", i, v, got)
		}
	}
}

func TestNetServerEndToEnd(t *testing.T) {
	st := testStore(t)
	solo := engine.OpenWithStore(st, engine.Config{})
	eng := engine.OpenWithStore(st, engine.Config{ShareExec: true, AdmissionWindow: 2 * time.Millisecond})
	defer eng.Close()
	srv := New(eng, Config{})
	ns := NewNetServer(srv)
	if err := ns.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := ns.Addr().String()

	queries := []string{
		"SELECT f_k1, f_qty FROM fact WHERE f_qty > 5",
		"SELECT f_tag, SUM(f_price) FROM fact GROUP BY f_tag",
		"SELECT d_grp, COUNT(*) FROM fact JOIN dim ON f_k1 = d_k GROUP BY d_grp",
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := solo.Query(q)
		if err != nil {
			t.Fatalf("solo %q: %v", q, err)
		}
		want[i] = exactRows(res.Rows)
	}

	const conns = 3
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				t.Errorf("conn %d dial: %v", c, err)
				return
			}
			defer cl.Close()
			ctx := context.Background()
			if err := cl.Hello(ctx, "tenant"); err != nil {
				t.Errorf("conn %d hello: %v", c, err)
				return
			}
			if err := cl.Ping(ctx); err != nil {
				t.Errorf("conn %d ping: %v", c, err)
				return
			}
			// Pipelined: all queries in flight at once on this connection.
			var qwg sync.WaitGroup
			for i, q := range queries {
				qwg.Add(1)
				go func(i int, q string) {
					defer qwg.Done()
					res, err := cl.Query(ctx, q)
					if err != nil {
						t.Errorf("conn %d query %d: %v", c, i, err)
						return
					}
					if got := exactRows(res.Rows); got != want[i] {
						t.Errorf("conn %d query %d: rows differ from solo", c, i)
					}
				}(i, q)
			}
			qwg.Wait()
			// A bad statement travels back as an ordinary error.
			if _, err := cl.Query(ctx, "SELEC nonsense"); err == nil {
				t.Errorf("conn %d: bad SQL did not error", c)
			}
		}(c)
	}
	wg.Wait()
	if err := ns.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The server is drained: a fresh dial must fail (listener closed).
	if _, err := Dial(addr); err == nil {
		t.Fatal("dial after shutdown succeeded")
	}
	if _, err := srv.Submit(context.Background(), "a", queries[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-shutdown Submit err = %v, want ErrClosed", err)
	}
}
