package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/engine"
	"repro/internal/catalog"
	"repro/internal/storage"
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

// floatBitsCases are float64 bit patterns a lossless codec must keep:
// signed zeros, infinities, NaNs with payloads (quiet and signalling, both
// signs), subnormals and the extreme normals.
var floatBitsCases = []uint64{
	0, 1 << 63,
	0x7ff0000000000000, 0xfff0000000000000,
	0x7ff8000000000000, 0xfff8000000000000, 0x7ff8000000000001, 0x7ff0000000000001,
	0x7fffffffffffffff, 0xffffffffffffffff, 0x7ff4000000c0ffee,
	1, 0x000fffffffffffff, 0x8000000000000001, 0x800fffffffffffff,
	0x0010000000000000, 0x7fefffffffffffff, 0xffefffffffffffff,
}

// TestWireFloatBitsMatchFmt pins ToWire and FromWire to the fmt pair they
// replaced: over random bit patterns and every floatBitsCases entry they
// render the same hex string and decode the same bits.
func TestWireFloatBitsMatchFmt(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	bits := append([]uint64(nil), floatBitsCases...)
	for i := 0; i < 20000; i++ {
		bits = append(bits, r.Uint64(), r.Uint64()>>r.IntN(64))
	}
	for _, b := range bits {
		old := ""
		if b != 0 {
			old = fmt.Sprintf("%x", b)
		}
		w := ToWire(types.Float(math.Float64frombits(b)))
		if w.F != old {
			t.Fatalf("bits %#x: ToWire renders %q, fmt renders %q", b, w.F, old)
		}
		got, err := FromWire(w)
		if err != nil {
			t.Fatalf("bits %#x: %v", b, err)
		}
		var want uint64
		if old != "" {
			if _, err := fmt.Sscanf(old, "%x", &want); err != nil {
				t.Fatal(err)
			}
		}
		if gb := math.Float64bits(got.F); gb != want || gb != b {
			t.Fatalf("bits %#x: FromWire decodes %#x, fmt decodes %#x", b, gb, want)
		}
	}
}

// TestFromWireRejectsMalformedBits pins the one deliberate difference from
// the fmt decoder: Sscanf stopped at the first non-hex byte and accepted
// what it had read ("1fzz" as 0x1f, "0x1f" as 0), where FromWire requires
// the whole string to be hex.
func TestFromWireRejectsMalformedBits(t *testing.T) {
	for _, f := range []string{"1fzz", "0x1f", " 1f", "1f ", "1_f", "-1", "x", "1ffffffffffffffff"} {
		if v, err := FromWire(WireValue{K: uint8(types.KindFloat64), F: f}); err == nil {
			t.Errorf("FromWire(%q) = %v, want an error", f, v.F)
		}
	}
}

// randomRows builds n rows of width values that exercise every field of
// every kind, including nulls of any kind (KindUnknown too), NaN payloads,
// -0, and strings that are empty, hold NULs or are not UTF-8.
func randomRows(r *rand.Rand, n, width int) [][]types.Value {
	strs := []string{"", "a", "a\xffb", "\x00", "line\nbreak", strings.Repeat("z", 300), "\xc3\x28", "héllo"}
	rows := make([][]types.Value, n)
	for i := range rows {
		row := make([]types.Value, width)
		for j := range row {
			v := types.Value{Kind: types.Kind(r.IntN(int(types.KindDate) + 2))}
			switch r.IntN(6) {
			case 0:
				v.Null = true
			case 1:
				v.I = r.Int64() - r.Int64()
			case 2:
				v.F = math.Float64frombits(floatBitsCases[r.IntN(len(floatBitsCases))])
			case 3:
				v.F = math.Float64frombits(r.Uint64())
			case 4:
				v.S = strs[r.IntN(len(strs))]
			default:
				v = types.Value{Kind: v.Kind, Null: r.IntN(2) == 0, I: int64(r.IntN(5) - 2),
					F: float64(r.IntN(3)), S: strs[r.IntN(len(strs))]}
			}
			row[j] = v
		}
		rows[i] = row
	}
	return rows
}

// requireBlockRoundTrip encodes rows, decodes the block, and requires the
// decoded rows to be bit-identical and packed (each row's capacity is its
// width, so rows sharing the decode slab cannot grow into each other).
func requireBlockRoundTrip(t *testing.T, width int, rows [][]types.Value) {
	t.Helper()
	block, err := encodeBlock(width, rows)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, w, err := decodeBlock(block)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if w != width || len(got) != len(rows) {
		t.Fatalf("decoded %d rows of %d, want %d of %d", len(got), w, len(rows), width)
	}
	for i, row := range got {
		if cap(row) != width {
			t.Fatalf("row %d: cap %d, want %d", i, cap(row), width)
		}
	}
	for i, row := range rows {
		for j, v := range row {
			if g := got[i][j]; g.Kind != v.Kind || g.Null != v.Null || g.I != v.I || g.S != v.S ||
				math.Float64bits(g.F) != math.Float64bits(v.F) {
				t.Fatalf("row %d value %d: round trip %+v -> %+v", i, j, v, g)
			}
		}
	}
}

func TestBlockRoundTrip(t *testing.T) {
	requireBlockRoundTrip(t, 3, nil)
	requireBlockRoundTrip(t, 1, [][]types.Value{{types.Unknown()}})
	r := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 200; i++ {
		w := 1 + r.IntN(6)
		requireBlockRoundTrip(t, w, randomRows(r, r.IntN(40), w))
	}
	if _, err := encodeBlock(2, [][]types.Value{{types.Int(1)}}); err == nil {
		t.Fatal("encodeBlock accepted a row narrower than the width")
	}
	if _, err := encodeBlock(0, [][]types.Value{{}}); err == nil {
		t.Fatal("encodeBlock accepted rows without columns")
	}
}

// TestDecodeBlockRejects feeds decodeBlock every proper prefix of a valid
// block, the block with a trailing byte, unknown flag bits, and counts no
// input of its length could hold: each must be an error.
func TestDecodeBlockRejects(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 3))
	block, err := encodeBlock(4, randomRows(r, 25, 4))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(block); n++ {
		if _, _, err := decodeBlock(block[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded", n, len(block))
		}
	}
	bad := [][]byte{
		append(append([]byte(nil), block...), 0),
		{1, 1, byte(types.KindInt64), 0x10},
		{1, 1, byte(types.KindInt64), blockF, 1, 2, 3},
		{1, 1, byte(types.KindString), blockS, 5, 'a'},
		{2, 0},
		{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 0, 0},
		{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0, 0},
		{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	}
	for _, b := range bad {
		if rows, _, err := decodeBlock(b); err == nil {
			t.Errorf("decodeBlock(%x) = %d rows, want an error", b, len(rows))
		}
	}
}

// FuzzDecodeBlock feeds decodeBlock arbitrary bytes: it must return an
// error or rows, never panic, and allocate at most a constant multiple of
// the input's length. Each input's seed also builds random rows that must
// round-trip through encodeBlock bit-exactly.
func FuzzDecodeBlock(f *testing.F) {
	r := rand.New(rand.NewPCG(11, 11))
	for i := 0; i < 8; i++ {
		block, err := encodeBlock(1+i%3, randomRows(r, i, 1+i%3))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(block, int64(i))
	}
	f.Add([]byte{}, int64(-1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 0, 0}, int64(-2))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		// A value takes at least 2 input bytes and 40 decoded ones, plus a
		// 24-byte row header per row; the slack covers size-class rounding.
		// The heap counter is process-wide, so the least of three decodes
		// is taken: the fuzzing engine's own goroutines allocate too.
		var rows [][]types.Value
		var width int
		var err error
		alloc := uint64(math.MaxUint64)
		sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		for try := 0; try < 3; try++ {
			metrics.Read(sample)
			before := sample[0].Value.Uint64()
			rows, width, err = decodeBlock(data)
			metrics.Read(sample)
			alloc = min(alloc, sample[0].Value.Uint64()-before)
		}
		if alloc > 64*uint64(len(data))+1<<16 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err == nil {
			requireBlockRoundTrip(t, width, rows)
		}
		rr := rand.New(rand.NewPCG(uint64(seed), 0))
		w := 1 + rr.IntN(4)
		requireBlockRoundTrip(t, w, randomRows(rr, rr.IntN(8), w))
	})
}

// TestNetServerResultsLossless queries values JSON cannot carry intact —
// strings that are not UTF-8 or hold a NUL, a NaN with a payload, a
// KindUnknown NULL — over the network and requires rows bit-identical to
// the engine's in-process answer.
func TestNetServerResultsLossless(t *testing.T) {
	cat := catalog.New()
	cat.MustAdd(&catalog.Table{Name: "t", Columns: []catalog.Column{
		{Name: "s", Type: types.KindString},
		{Name: "f", Type: types.KindFloat64},
		{Name: "i", Type: types.KindInt64},
	}})
	eng := engine.OpenWithStore(storage.NewStore(cat), engine.Config{})
	defer eng.Close()
	if err := eng.Load("t", [][]types.Value{
		{types.String("a\xffb"), types.Float(math.Float64frombits(0x7ff4000000c0ffee)), types.Int(-1)},
		{types.String("nul\x00in"), types.Float(math.Copysign(0, -1)), types.NullOf(types.KindInt64)},
		{types.String("\xc3\x28"), types.NullOf(types.KindFloat64), types.Int(1 << 62)},
	}); err != nil {
		t.Fatal(err)
	}
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
	const q = "SELECT s, f, i, NULL FROM t"
	want, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != 3 || want.Rows[0][3].Kind != types.KindUnknown || !want.Rows[0][3].Null {
		t.Fatalf("engine answer lacks the KindUnknown NULL column: %+v", want.Rows)
	}
	got, err := cl.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := exactRows(got.Rows), exactRows(want.Rows); a != b {
		t.Fatalf("rows over the wire differ from the engine's:\n got %s\nwant %s", a, b)
	}
}

// TestClientRejectsBadBlock answers a query with a block whose width does
// not match the response's columns, then with a malformed block, then with
// no block at all: the first two are errors, the last is zero rows.
func TestClientRejectsBadBlock(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	wide, err := encodeBlock(2, [][]types.Value{{types.Int(1), types.Int(2)}})
	if err != nil {
		t.Fatal(err)
	}
	blocks := [][]byte{wide, {1, 1, byte(types.KindInt64)}, nil}
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for _, block := range blocks {
			line, err := br.ReadBytes('\n')
			if err != nil {
				return
			}
			var req Request
			if json.Unmarshal(line, &req) != nil {
				return
			}
			b, _ := marshalLine(&Response{ID: req.ID, OK: true, Columns: []string{"x"}, Block: block})
			if _, err := conn.Write(b); err != nil {
				return
			}
		}
	}()
	cl, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if res, err := cl.Query(ctx, "SELECT 1"); err == nil {
			t.Errorf("bad block %d decoded to %d rows", i, len(res.Rows))
		}
	}
	res, err := cl.Query(ctx, "SELECT 1")
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("response without a block: %v, %v", res, err)
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
