package vec

import (
	"math"

	"repro/internal/types"
)

// FNV-1a parameters; the executor's partition-wise parallel operators use
// these hashes to route rows to hash-table shards, so the only requirement
// is determinism plus consistency with key equality (below) — not
// cryptographic strength.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func hashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func hashUint64(h uint64, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = hashByte(h, byte(x))
		x >>= 8
	}
	return h
}

// HashValue folds one value into h. The discrimination mirrors the
// executor's key equality (keysEqual in internal/exec) exactly: NULL hashes
// as its own tag, strings by length-prefixed bytes, doubles by their bit
// pattern (NaN payloads collapse to one canonical NaN, because every NaN
// equals every NaN as a key), and every integer-payload kind (BIGINT,
// BOOLEAN, DATE) under one shared tag. Equal keys therefore always hash
// equal, which is what lets the executor's hash tables key on the hash and
// route rows to hash partitions by it.
func HashValue(h uint64, v types.Value) uint64 {
	switch {
	case v.Null:
		return hashByte(h, 'n')
	case v.Kind == types.KindString:
		h = hashByte(h, 's')
		h = hashUint64(h, uint64(len(v.S)))
		for i := 0; i < len(v.S); i++ {
			h = hashByte(h, v.S[i])
		}
		return h
	case v.Kind == types.KindFloat64:
		f := v.F
		if f != f {
			f = math.NaN()
		}
		return hashUint64(hashByte(h, 'f'), math.Float64bits(f))
	default:
		return hashUint64(hashByte(h, 'i'), uint64(v.I))
	}
}

// HashKey hashes one tuple of key values.
func HashKey(vals []types.Value) uint64 {
	h := fnvOffset64
	for _, v := range vals {
		h = HashValue(h, v)
	}
	return h
}

// HashColumns writes one hash per active row of b, combining the columns at
// the given indexes; out must hold b.Len() values. This is the batch kernel
// behind partition-wise aggregation: one pass per key column, no per-row
// key materialization.
func (b *Batch) HashColumns(cols []int, out []uint64) {
	n := b.Len()
	for i := 0; i < n; i++ {
		out[i] = fnvOffset64
	}
	for _, c := range cols {
		col := b.Cols[c]
		if b.Sel == nil {
			for i := 0; i < n; i++ {
				out[i] = HashValue(out[i], col[i])
			}
			continue
		}
		for i, r := range b.Sel {
			out[i] = HashValue(out[i], col[r])
		}
	}
}

// HashRows writes one hash per row across logical column vectors (selection
// already applied, as produced by batch evaluators); every vector must hold
// len(out) values. The hash join uses it on evaluated key expressions, to
// partition and key its build rows and to look up its probe rows.
func HashRows(cols [][]types.Value, out []uint64) {
	for i := range out {
		out[i] = fnvOffset64
	}
	for _, col := range cols {
		for i := range out {
			out[i] = HashValue(out[i], col[i])
		}
	}
}
