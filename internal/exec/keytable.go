package exec

import (
	"math"
	"math/bits"

	"repro/internal/types"
)

// Hash-operator keys. Every hash structure in the executor — the join
// build, the group table, MarkDistinct's seen sets and the window's
// partitions — is keyed by the 64-bit vec.HashKey hash of the key tuple
// and resolves collisions by comparing the values themselves with
// keysEqual. vec.HashValue discriminates exactly as keysEqual does, so
// equal keys always carry equal hashes.

// keyValueEqual is key equality on one value. Kinds fall into three
// classes, and values of different classes never match: strings compare
// by bytes; doubles by bit pattern, except that every NaN equals every NaN
// (so −0 and +0 differ); every other kind by its integer payload, so
// BIGINT, DATE and BOOLEAN values with equal payloads match. A NULL equals
// any NULL, whatever its kind; callers with SQL equality (the join) drop
// NULL keys before they reach a table.
func keyValueEqual(a, b types.Value) bool {
	if a.Null || b.Null {
		return a.Null == b.Null
	}
	switch a.Kind {
	case types.KindString:
		return b.Kind == types.KindString && a.S == b.S
	case types.KindFloat64:
		return b.Kind == types.KindFloat64 &&
			(math.Float64bits(a.F) == math.Float64bits(b.F) || a.F != a.F && b.F != b.F)
	default:
		return b.Kind != types.KindString && b.Kind != types.KindFloat64 && a.I == b.I
	}
}

// keysEqual is keyValueEqual over two tuples of one width.
func keysEqual(a, b []types.Value) bool {
	for i := range a {
		if !keyValueEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Block sizes of a tupleStore, in tuples: the first block holds
// tupleBlockMin, each next one twice the previous up to tupleBlockMax, and
// every block after that tupleBlockMax.
const (
	tupleBlockMin = 16
	tupleBlockMax = 1024
	// tupleGeoBlocks is the number of doubling blocks and tupleGeoTuples
	// the tuples they hold together.
	tupleGeoBlocks = 7 // 16, 32, …, 1024
	tupleGeoTuples = 2*tupleBlockMax - tupleBlockMin
)

// tupleStore holds fixed-width value tuples in insertion order. It grows
// block by block and never copies a tuple it holds, so a large hash table
// costs its own size, without the over-capacity and the copies of a
// growing slice, while a small one allocates one small block.
type tupleStore struct {
	width  int
	blocks [][]types.Value
	n      int
}

// add returns the slot of a new tuple: width zero values, capacity-bound
// so no append can reach the next tuple.
func (s *tupleStore) add() []types.Value {
	k, off := tupleBlockOf(s.n)
	s.n++
	if s.width == 0 {
		return nil
	}
	if k == len(s.blocks) {
		size := tupleBlockMax
		if k < tupleGeoBlocks {
			size = tupleBlockMin << k
		}
		s.blocks = append(s.blocks, make([]types.Value, size*s.width))
	}
	off *= s.width
	return s.blocks[k][off : off+s.width : off+s.width]
}

// at returns tuple i.
func (s *tupleStore) at(i int) []types.Value {
	if s.width == 0 {
		return nil
	}
	k, off := tupleBlockOf(i)
	off *= s.width
	return s.blocks[k][off : off+s.width : off+s.width]
}

// tupleBlockOf locates tuple i: its block and its index in the block.
func tupleBlockOf(i int) (block, off int) {
	if i < tupleGeoTuples {
		// Block k starts at tuple tupleBlockMin<<k - tupleBlockMin.
		k := bits.Len(uint(i+tupleBlockMin)) - bits.Len(tupleBlockMin)
		return k, i + tupleBlockMin - tupleBlockMin<<k
	}
	i -= tupleGeoTuples
	return tupleGeoBlocks + i/tupleBlockMax, i % tupleBlockMax
}

// keyIndex numbers distinct key tuples 0, 1, 2, … in first-insertion
// order. heads maps a key hash to the newest entry carrying it and next
// chains each entry to the previous one with the same hash, so a hash
// collision costs one keysEqual comparison, never a wrong match. Entry e's
// key is keys.at(e), copied in once.
type keyIndex struct {
	heads map[uint64]int32
	keys  tupleStore
	next  []int32
}

func newKeyIndex(width int) keyIndex {
	return keyIndex{heads: make(map[uint64]int32), keys: tupleStore{width: width}}
}

// find returns the entry holding key, whose hash is h, or -1.
func (x *keyIndex) find(h uint64, key []types.Value) int32 {
	e, ok := x.heads[h]
	if !ok {
		return -1
	}
	for ; e >= 0; e = x.next[e] {
		if keysEqual(x.keys.at(int(e)), key) {
			return e
		}
	}
	return -1
}

// findOrAdd returns key's entry, adding it when absent; added reports
// whether it did.
func (x *keyIndex) findOrAdd(h uint64, key []types.Value) (e int32, added bool) {
	if e := x.find(h, key); e >= 0 {
		return e, false
	}
	head, ok := x.heads[h]
	if !ok {
		head = -1
	}
	e = int32(len(x.next))
	x.next = append(x.next, head)
	copy(x.keys.add(), key)
	x.heads[h] = e
	return e, true
}
