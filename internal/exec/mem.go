package exec

import "repro/internal/types"

// Memory estimation for the memctl reservations made by blocking
// operators. Estimates are deliberately simple — a fixed per-value struct
// cost plus string payloads and container overheads — because the budget
// they enforce is a governance bound, not an allocator measurement; what
// matters is that the estimate grows monotonically with real usage so the
// spill policy fires under genuine pressure.

// Operator labels used for reservation attribution in Metrics.
const (
	opGroupBy = "groupby"
	opSort    = "sort"
	opJoin    = "join-build"
	opNLJoin  = "nestedloop-build"
	opWindow  = "window"
	opSpool   = "spool"
)

const (
	// valueMemBase is the resident cost of one types.Value struct.
	valueMemBase = 48
	// rowMemBase covers the slice header plus allocator slack of one row.
	rowMemBase = 32
	// groupMemBase covers one aggregation group: struct, table entry and
	// order-slice slot.
	groupMemBase = 128
	// aggStateMemBytes is the resident cost of one aggState (two embedded
	// values plus counters).
	aggStateMemBytes = 128
	// hashRowOverhead covers a hash-table bucket entry holding one row.
	hashRowOverhead = 64
	// reserveChunkBytes caps a single Reserve call made while buffering
	// rows. Reserving a large batch in one call would fail outright
	// whenever it alone exceeds the pool limit; chunking lets the pool
	// spill between chunks (including the reserving operator itself), so
	// any input larger than the budget degrades to spilling instead.
	reserveChunkBytes = 32 << 10
)

func valueMemBytes(v types.Value) int64 {
	return valueMemBase + int64(len(v.S))
}

func rowMemBytes(row Row) int64 {
	n := int64(rowMemBase)
	for _, v := range row {
		n += valueMemBytes(v)
	}
	return n
}

func groupMemBytes(keyVals []types.Value, nAggs int) int64 {
	n := int64(groupMemBase) + int64(nAggs)*aggStateMemBytes
	for _, v := range keyVals {
		n += valueMemBytes(v)
	}
	return n
}
