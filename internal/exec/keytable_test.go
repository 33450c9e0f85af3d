package exec

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/types"
	"repro/internal/vec"
)

// encodeKey renders a tuple as a string with type tags: NULL of any kind
// as 'n', strings length-prefixed, doubles in strconv's exact 'b' format
// (every NaN renders as "NaN"), every other kind by its integer payload.
// Two tuples render equally exactly when they are one key, which makes it
// the reference keysEqual is checked against; tests also use it as a row
// fingerprint.
func encodeKey(b *strings.Builder, vals []types.Value) string {
	b.Reset()
	for _, v := range vals {
		if v.Null {
			b.WriteByte('n')
		} else {
			switch v.Kind {
			case types.KindString:
				b.WriteByte('s')
				b.WriteString(strconv.Itoa(len(v.S)))
				b.WriteByte(':')
				b.WriteString(v.S)
			case types.KindFloat64:
				b.WriteByte('f')
				b.WriteString(strconv.FormatFloat(v.F, 'b', -1, 64))
			default:
				b.WriteByte('i')
				b.WriteString(strconv.FormatInt(v.I, 10))
			}
		}
		b.WriteByte('|')
	}
	return b.String()
}

// keyPool holds the values key equality is most likely to get wrong: NULLs
// of every kind, NaNs with distinct payloads and signs, ±0, ±Inf,
// subnormals, BIGINT/DATE/BOOLEAN (and a non-NULL UNKNOWN) sharing integer
// payloads, strings that spell an int, and strings with NUL and non-UTF-8
// bytes.
var keyPool = []types.Value{
	types.NullOf(types.KindInt64), types.NullOf(types.KindFloat64), types.NullOf(types.KindString),
	types.NullOf(types.KindDate), types.NullOf(types.KindBool), types.Unknown(),
	types.Float(math.NaN()), types.Float(-math.NaN()),
	types.Float(math.Float64frombits(0x7ff0000000000001)), types.Float(math.Float64frombits(0xfff8000000000123)),
	types.Float(0), types.Float(math.Copysign(0, -1)), types.Float(math.Inf(1)), types.Float(math.Inf(-1)),
	types.Float(math.SmallestNonzeroFloat64), types.Float(-math.SmallestNonzeroFloat64),
	types.Float(math.Float64frombits(0x000fffffffffffff)), types.Float(1), types.Float(2.5),
	types.Int(0), types.Int(1), types.Int(-1), types.Int(2), types.Int(math.MinInt64), types.Int(math.MaxInt64),
	types.Date(0), types.Date(1), types.Date(2), types.Bool(false), types.Bool(true),
	{Kind: types.KindUnknown, I: 1},
	types.String(""), types.String("1"), types.String("i1|"), types.String("a"), types.String("a\x00"),
	types.String("\x00"), types.String("\xff\xfe"), types.String("n"),
}

// keyTwin returns a value encodeKey renders like v, usually of another
// kind or payload: NULLs of another kind, another NaN, an integer payload
// under another integer-class kind.
func keyTwin(rng *rand.Rand, v types.Value) types.Value {
	switch {
	case v.Null:
		return types.NullOf(types.Kind(rng.Intn(int(types.KindDate) + 1)))
	case v.Kind == types.KindFloat64 && v.F != v.F:
		return types.Float(math.Float64frombits(0x7ff0000000000000 | rng.Uint64()&0x000fffffffffffff | uint64(rng.Intn(2))<<63 | 1))
	case v.Kind == types.KindString, v.Kind == types.KindFloat64:
		return v
	}
	kinds := []types.Kind{types.KindInt64, types.KindDate, types.KindUnknown}
	if v.I == 0 || v.I == 1 {
		kinds = append(kinds, types.KindBool)
	}
	return types.Value{Kind: kinds[rng.Intn(len(kinds))], I: v.I}
}

// checkKeyPair asserts that the hash tables see tuples a and b as one key
// exactly when encodeKey renders them equally — under the group rule
// (NULLs of any kind are one value) through keyIndex and the group table,
// and under the join rule (NULL keys never enter or probe) through
// joinTable — and that equal keys hash equal.
func checkKeyPair(t *testing.T, a, b []types.Value) {
	t.Helper()
	var ba, bb strings.Builder
	want := encodeKey(&ba, a) == encodeKey(&bb, b)
	if got := keysEqual(a, b); got != want {
		t.Fatalf("keysEqual(%v, %v) = %v, encodings equal = %v", a, b, got, want)
	}
	ha, hb := vec.HashKey(a), vec.HashKey(b)
	if want && ha != hb {
		t.Fatalf("equal keys %v and %v hash %x and %x", a, b, ha, hb)
	}
	// Store a under b's hash too, so a hash match never decides alone.
	x := newKeyIndex(len(a))
	x.findOrAdd(hb, a)
	if got := x.find(hb, b) >= 0; got != want {
		t.Fatalf("keyIndex: %v found under %v = %v, want %v", b, a, got, want)
	}
	ga := &groupAccumulator{groups: make(map[uint64]*group)}
	ga.putGroup(&group{keyVals: a, hash: hb})
	if got := ga.findGroup(hb, b) != nil; got != want {
		t.Fatalf("group table: %v found under %v = %v, want %v", b, a, got, want)
	}
	if hasNull(a) || hasNull(b) {
		return
	}
	jt := newJoinTable(len(a), 1)
	jt.insert(hb, a)[0] = types.Int(7)
	if got := jt.match(hb, b) >= 0; got != want {
		t.Fatalf("joinTable: %v matches %v = %v, want %v", b, a, got, want)
	}
}

// checkKeyPairs draws n random tuple pairs from pool; about half are twins
// position by position, the rest mix twins and fresh draws.
func checkKeyPairs(t *testing.T, rng *rand.Rand, pool []types.Value, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		w := 1 + rng.Intn(3)
		a, b := make([]types.Value, w), make([]types.Value, w)
		twins := rng.Intn(2) == 0
		for k := range a {
			a[k] = pool[rng.Intn(len(pool))]
			if twins || rng.Intn(2) == 0 {
				b[k] = keyTwin(rng, a[k])
			} else {
				b[k] = pool[rng.Intn(len(pool))]
			}
		}
		checkKeyPair(t, a, b)
	}
}

func TestKeyEqualityMatchesEncoding(t *testing.T) {
	for _, a := range keyPool {
		for _, b := range keyPool {
			checkKeyPair(t, []types.Value{a}, []types.Value{b})
		}
	}
	checkKeyPairs(t, rand.New(rand.NewSource(1)), keyPool, 20000)
	// The join's INT/DOUBLE promotion turns int 0 into +0.0, never −0.0.
	zero := []types.Value{types.Float(float64(types.Int(0).I))}
	if !keysEqual(zero, []types.Value{types.Float(0)}) || keysEqual(zero, []types.Value{types.Float(math.Copysign(0, -1))}) {
		t.Fatal("promoted int 0 must equal +0.0 and differ from −0.0")
	}
}

// FuzzKeyEquality runs the same oracle over a pool extended with fuzzed
// payloads: an integer under every integer-class kind, a double from raw
// bits and a string from raw bytes.
func FuzzKeyEquality(f *testing.F) {
	f.Add(int64(1), int64(0), uint64(0x7ff8000000000001), "")
	f.Add(int64(2), int64(1), uint64(0x8000000000000000), "1")
	f.Add(int64(3), int64(-7), uint64(1), "a\x00b")
	f.Add(int64(4), int64(math.MaxInt64), uint64(0x7ff0000000000000), "\xff")
	f.Fuzz(func(t *testing.T, seed, i int64, bits uint64, s string) {
		pool := append([]types.Value{
			types.Int(i), types.Date(i), {Kind: types.KindBool, I: i},
			types.Float(math.Float64frombits(bits)), types.Float(float64(i)), types.String(s),
			types.String(strconv.FormatInt(i, 10)),
		}, keyPool...)
		checkKeyPairs(t, rand.New(rand.NewSource(seed)), pool, 500)
	})
}

// TestKeyTableCollisions stores distinct keys under one hash, so every
// lookup must walk a chain and decide on the values.
func TestKeyTableCollisions(t *testing.T) {
	const h = 42
	k := func(i int64) []types.Value { return []types.Value{types.Int(i), types.String("x")} }

	jt := newJoinTable(2, 1)
	for r, key := range []int64{1, 2, 1, 3, 2, 1} {
		jt.insert(h, k(key))[0] = types.Int(int64(r))
	}
	rowsOf := func(key []types.Value, hash uint64) []int64 {
		var out []int64
		for r := jt.match(hash, key); r >= 0; r = jt.rowNext[r] {
			out = append(out, jt.rows.at(int(r))[0].I)
		}
		return out
	}
	for key, want := range map[int64][]int64{1: {0, 2, 5}, 2: {1, 4}, 3: {3}, 4: nil} {
		if got := rowsOf(k(key), h); !slices.Equal(got, want) {
			t.Errorf("key %d: rows %v, want %v in insertion order", key, got, want)
		}
	}
	if got := rowsOf(k(1), h+1); got != nil {
		t.Errorf("key 1 under another hash: rows %v, want none", got)
	}

	// Chains are newest-first: g3, g2, g1. Drop each position in turn.
	for _, drop := range []int64{3, 2, 1} {
		ga := &groupAccumulator{groups: make(map[uint64]*group)}
		gs := map[int64]*group{}
		for i := int64(1); i <= 3; i++ {
			gs[i] = &group{keyVals: k(i), hash: h}
			ga.putGroup(gs[i])
		}
		other := &group{keyVals: k(1), hash: h + 1}
		ga.putGroup(other)
		ga.dropGroup(gs[drop])
		for i, g := range gs {
			want := g
			if i == drop {
				want = nil
			}
			if got := ga.findGroup(h, k(i)); got != want {
				t.Errorf("after dropping key %d: find key %d = %p, want %p", drop, i, got, want)
			}
		}
		if ga.findGroup(h+1, k(1)) != other {
			t.Errorf("after dropping key %d: the other hash's group is gone", drop)
		}
		for i, g := range gs {
			if i != drop {
				ga.dropGroup(g)
			}
		}
		if _, ok := ga.groups[h]; ok || len(ga.groups) != 1 {
			t.Errorf("after dropping every key under %d: %d hashes left, want 1", h, len(ga.groups))
		}
	}
}

// TestTupleStore fills stores across the doubling blocks and into the
// fixed-size ones, then reads every tuple back.
func TestTupleStore(t *testing.T) {
	for _, width := range []int{0, 1, 3} {
		s := tupleStore{width: width}
		const n = tupleGeoTuples + 2*tupleBlockMax + 5
		for i := 0; i < n; i++ {
			slot := s.add()
			if len(slot) != width || cap(slot) != width {
				t.Fatalf("width %d: slot %d has len %d, cap %d", width, i, len(slot), cap(slot))
			}
			for c := range slot {
				slot[c] = types.Int(int64(i*width + c))
			}
		}
		for i := 0; i < n; i++ {
			for c, v := range s.at(i) {
				if v.I != int64(i*width+c) {
					t.Fatalf("width %d: tuple %d column %d holds %d", width, i, c, v.I)
				}
			}
		}
		if want := tupleGeoBlocks + 3; width > 0 && len(s.blocks) != want {
			t.Errorf("width %d: %d blocks, want %d", width, len(s.blocks), want)
		}
	}
}
