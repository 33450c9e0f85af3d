package exec

import (
	"slices"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/memctl"
	"repro/internal/types"
	"repro/internal/vec"
)

func hasNull(vals []types.Value) bool {
	for _, v := range vals {
		if v.Null {
			return true
		}
	}
	return false
}

func (ex *executor) buildJoin(j *logical.Join) (BatchIterator, error) {
	// Snapshot the probe leaf's skip registration before building, so the
	// sideways attachment below can tell a live scan from a cache replay.
	var probePrev *scanCtrlReg
	if ps, _ := probeScan(j.Left); ps != nil {
		probePrev = ex.sideCtrls[ps]
	}
	left, err := ex.build(j.Left)
	if err != nil {
		return nil, err
	}
	// The build side is always consumed totally before probing begins.
	right, err := ex.buildConsumed(j.Right)
	if err != nil {
		return nil, err
	}
	leftLayout := layoutOf(j.Left)
	rightLayout := layoutOf(j.Right)

	// Split the condition into equi-join key expressions and a residual.
	// Keys may be arbitrary expressions as long as each side of the
	// equality evaluates over a single input (this is what keeps the
	// CASE-dispatched keys produced by the UnionAllOnJoin rewrite
	// hash-joinable).
	var leftKeys, rightKeys []*batchEvaluator
	var leftKeyExprs, rightKeyExprs []expr.Expr
	var residual []expr.Expr
	leftSet := logical.OutputSet(j.Left)
	rightSet := logical.OutputSet(j.Right)
	for _, c := range expr.Conjuncts(j.Cond) {
		if b, ok := c.(*expr.Binary); ok && b.Op == expr.OpEq {
			le, re := b.L, b.R
			if !expr.RefersOnly(le, leftSet) || !expr.RefersOnly(re, rightSet) {
				le, re = re, le
			}
			if expr.RefersOnly(le, leftSet) && expr.RefersOnly(re, rightSet) &&
				types.Comparable(le.Type(), re.Type()) {
				lev, lerr := newBatchEvaluator(le, leftLayout)
				rev, rerr := newBatchEvaluator(re, rightLayout)
				if lerr == nil && rerr == nil {
					// A BIGINT key against a DOUBLE key compares as DOUBLE,
					// as a filter or a nested-loop join compares them: the
					// integer side is promoted before hashing.
					if le.Type() != re.Type() {
						lev, rev = floatKey(lev, le.Type()), floatKey(rev, re.Type())
					}
					leftKeys = append(leftKeys, lev)
					rightKeys = append(rightKeys, rev)
					leftKeyExprs = append(leftKeyExprs, le)
					rightKeyExprs = append(rightKeyExprs, re)
					continue
				}
			}
		}
		residual = append(residual, c)
	}

	// The residual (and any non-equi condition) evaluates row-at-a-time
	// over the combined left+right row, which only exists transiently
	// during probing.
	combined := make(map[expr.ColumnID]int, len(leftSet)+len(rightSet))
	for id, idx := range leftLayout {
		combined[id] = idx
	}
	width := len(j.Left.Schema())
	for id, idx := range rightLayout {
		combined[id] = width + idx
	}
	var resEv *evaluator
	if len(residual) > 0 {
		resEv, err = newEvaluator(expr.And(residual...), combined)
		if err != nil {
			return nil, err
		}
	}

	if len(leftKeys) == 0 {
		return &nestedLoopIter{
			kind: j.Kind, left: left, right: right,
			leftWidth: width, rightWidth: len(j.Right.Schema()),
			cond: resEv, batchSize: ex.opts.BatchSize, m: ex.metrics,
			tracker: ex.tracker,
		}, nil
	}
	hj := &hashJoinIter{
		kind: j.Kind, left: left, right: right,
		leftKeys: leftKeys, rightKeys: rightKeys,
		leftWidth: width, rightWidth: len(j.Right.Schema()),
		residual: resEv, batchSize: ex.opts.BatchSize, m: ex.metrics,
		workers: ex.opts.Parallelism, pool: ex.pool, tracker: ex.tracker,
	}
	// Sideways data skipping: when the probe side is a plain (projected)
	// scan, publish build-key summaries so probe partitions provably
	// disjoint from the build keys skip decode. The table build completes
	// before the first probe pull, so the filters are always published (or
	// the build failed) by the time a probe worker consults them.
	hj.sideways = ex.attachSideways(j, leftKeyExprs, rightKeyExprs, probePrev)
	return hj, nil
}

// floatKey promotes a join key evaluator of the given kind to DOUBLE
// values; a DOUBLE key is returned as it is. NULLs stay NULL.
func floatKey(ev *batchEvaluator, kind types.Kind) *batchEvaluator {
	if kind == types.KindFloat64 {
		return ev
	}
	fn := ev.fn
	return &batchEvaluator{fn: func(b *vec.Batch, out []types.Value) {
		fn(b, out)
		for i, v := range out {
			if !v.Null {
				out[i] = types.Float(float64(v.I))
			}
		}
	}}
}

// joinTable is one build shard's hash table. keys numbers the shard's
// distinct build keys; each key entry chains its build rows in insertion
// order through rowNext, from first[e] to last[e], so a probe walks its
// matches in exactly the order a per-key bucket list would hold them.
type joinTable struct {
	keys    keyIndex
	first   []int32    // per key entry: its first build row
	last    []int32    // per key entry: its last build row
	rows    tupleStore // build rows, in insertion order
	rowNext []int32    // per build row: the next row with the same key, -1 at the end
}

func newJoinTable(keyWidth, rowWidth int) *joinTable {
	return &joinTable{keys: newKeyIndex(keyWidth), rows: tupleStore{width: rowWidth}}
}

// insert adds a build row under key, whose hash is h, and returns the
// row's slot for the caller to fill.
func (t *joinTable) insert(h uint64, key []types.Value) Row {
	r := int32(len(t.rowNext))
	row := t.rows.add()
	t.rowNext = append(t.rowNext, -1)
	e, added := t.keys.findOrAdd(h, key)
	if added {
		t.first = append(t.first, r)
		t.last = append(t.last, r)
		return row
	}
	t.rowNext[t.last[e]] = r
	t.last[e] = r
	return row
}

// match returns the first build row of key, whose hash is h, or -1.
func (t *joinTable) match(h uint64, key []types.Value) int32 {
	if e := t.keys.find(h, key); e >= 0 {
		return t.first[e]
	}
	return -1
}

// hashJoinIter builds a hash table over the right input and streams the
// left (probe) input batch-at-a-time — the engine's only buffered state,
// matching a streaming engine's memory profile. The build is one
// hash-partitioned drive (drainShards) with one table shard per unit of
// Parallelism: each shard holds exactly the rows whose key hash maps to it,
// inserted in input order. Probe keys are evaluated and hashed vector-wise
// per batch; each probe row walks its shard's chain for its key, and
// matches accumulate into an output builder until a full batch is ready.
type hashJoinIter struct {
	kind                  logical.JoinKind
	left, right           BatchIterator
	leftKeys, rightKeys   []*batchEvaluator
	leftWidth, rightWidth int
	residual              *evaluator
	batchSize             int
	m                     *Metrics
	workers               int
	pool                  *WorkerPool
	// tracker accounts the build table's bytes. The table cannot spill —
	// under a tight budget the reservation fails with ErrMemoryExceeded —
	// but releasing it at probe EOF frees the budget for downstream
	// blocking operators (e.g. an aggregation's spill replay).
	tracker  *memctl.Tracker
	reserved int64 // atomic during the build, settled when its drain returns
	released bool
	// sideways are the probe-side skip filters this build feeds (nil when
	// sideways skipping did not attach). Key summaries accumulate over
	// inserted rows and publish when the table build completes.
	sideways []*sidewaysFilter

	built   bool
	tables  []*joinTable // hash-partitioned shards, one per build shard
	keyVals []types.Value

	// probe state
	leftBatch      *vec.Batch
	leftKeyCols    [][]types.Value
	leftHashes     []uint64
	leftRowIdx     int
	curLeft        Row
	curLeftActive  bool
	curLeftMatched bool
	curTable       *joinTable
	curRow         int32 // next build row to try for curLeft, -1 when none
	combined       Row
}

func (it *hashJoinIter) outWidth() int {
	if it.kind == logical.SemiJoin {
		return it.leftWidth
	}
	return it.leftWidth + it.rightWidth
}

// buildTable drains the right input into max(1, workers) hash-partitioned
// tables through drainShards. prep evaluates the key expressions (copied out
// of the evaluators' reusable buffers only when several shards read them)
// and hashes them; each shard inserts its rows into its own table in input
// order, so every key's row order is the serial build's, reserves their
// bytes and observes its own sideways key summaries, which merge into shard
// 0's once the drain is done.
func (it *hashJoinIter) buildTable() error {
	shards := max(1, it.workers)
	it.keyVals = make([]types.Value, len(it.rightKeys))
	it.tables = make([]*joinTable, shards)
	shardAccs := make([][]keyAccum, shards)
	prep := func(b *vec.Batch, hashes []uint64) [][]types.Value {
		keyCols := make([][]types.Value, len(it.rightKeys))
		for k, ev := range it.rightKeys {
			keyCols[k] = ev.eval(b)
			if shards > 1 {
				keyCols[k] = slices.Clone(keyCols[k])
			}
		}
		vec.HashRows(keyCols, hashes)
		return keyCols
	}
	shard := func(p int) func(shardBatch[[][]types.Value]) error {
		table := newJoinTable(len(it.rightKeys), it.rightWidth)
		it.tables[p] = table
		accs := make([]keyAccum, len(it.sideways))
		shardAccs[p] = accs
		kv := make([]types.Value, len(it.rightKeys))
		return func(sb shardBatch[[][]types.Value]) error {
			inserted := 0
			var batchBytes int64
			for j, n := 0, sb.count(); j < n; j++ {
				i := sb.row(j)
				for k, col := range sb.aux {
					kv[k] = col[i]
				}
				if hasNull(kv) {
					continue // NULL keys never match in equi-joins
				}
				row := table.insert(sb.hashes[i], kv)
				sb.b.Gather(i, row)
				inserted++
				batchBytes += rowMemBytes(row) + hashRowOverhead
				for si, sf := range it.sideways {
					accs[si].observe(kv[sf.keyPos])
				}
			}
			it.m.addHashRows(int64(inserted))
			if batchBytes == 0 {
				return nil
			}
			if err := it.tracker.Reserve(opJoin, batchBytes); err != nil {
				return err
			}
			atomic.AddInt64(&it.reserved, batchBytes)
			return nil
		}
	}
	if err := drainShards(it.right, shards, it.pool, it.m, prep, shard); err != nil {
		return err
	}
	for _, accs := range shardAccs[1:] {
		for si := range accs {
			shardAccs[0][si].merge(&accs[si])
		}
	}
	for si, sf := range it.sideways {
		sf.state.Store(&shardAccs[0][si])
	}
	it.built = true
	return nil
}

// releaseBuild returns the build table's reservation once probing is done
// and drops the tables, so a finished join's build rows can be collected
// while the rest of the plan runs; the budget moves downstream (a spilled
// aggregation's replay, a sort merge).
func (it *hashJoinIter) releaseBuild() {
	if it.released {
		return
	}
	it.released = true
	it.tables, it.curTable = nil, nil
	if r := atomic.LoadInt64(&it.reserved); r > 0 {
		it.tracker.Release(opJoin, r)
	}
}

func (it *hashJoinIter) NextBatch() (*vec.Batch, error) {
	if !it.built {
		if err := it.buildTable(); err != nil {
			return nil, err
		}
		it.curLeft = make(Row, it.leftWidth)
		it.combined = make(Row, it.leftWidth+it.rightWidth)
		it.curRow = -1
	}
	bl := vec.NewBuilder(it.outWidth(), it.batchSize)
	for {
		// Emit pending matches for the current probe row.
		for it.curLeftActive && it.curRow >= 0 {
			r := it.curTable.rows.at(int(it.curRow))
			it.curRow = it.curTable.rowNext[it.curRow]
			copy(it.combined, it.curLeft)
			copy(it.combined[it.leftWidth:], r)
			if it.residual != nil && !it.residual.eval(it.combined).IsTrue() {
				continue
			}
			switch it.kind {
			case logical.SemiJoin:
				// First surviving match emits the probe row once.
				bl.Append(it.curLeft)
				it.curLeftActive = false
			case logical.LeftJoin, logical.InnerJoin:
				it.curLeftMatched = true
				bl.Append(it.combined)
			}
			if bl.Full() {
				return bl.Flush(), nil
			}
		}
		if it.curLeftActive {
			// Left join: emit NULL-extended row when nothing matched.
			if it.kind == logical.LeftJoin && !it.curLeftMatched {
				copy(it.combined, it.curLeft)
				for i := it.leftWidth; i < len(it.combined); i++ {
					it.combined[i] = types.Unknown()
				}
				bl.Append(it.combined)
				it.curLeftActive = false
				if bl.Full() {
					return bl.Flush(), nil
				}
			}
			it.curLeftActive = false
		}
		// Advance to the next probe row, pulling a new batch as needed.
		if it.leftBatch == nil || it.leftRowIdx >= it.leftBatch.Len() {
			b, err := it.left.NextBatch()
			if err != nil {
				return nil, err
			}
			if b == nil {
				it.releaseBuild()
				return bl.Flush(), nil // nil when empty: EOF
			}
			n := b.Len()
			it.m.addProcessed(int64(n))
			it.leftBatch, it.leftRowIdx = b, 0
			if cap(it.leftKeyCols) < len(it.leftKeys) {
				it.leftKeyCols = make([][]types.Value, len(it.leftKeys))
			}
			it.leftKeyCols = it.leftKeyCols[:len(it.leftKeys)]
			for k, ev := range it.leftKeys {
				it.leftKeyCols[k] = ev.eval(b)
			}
			if cap(it.leftHashes) < n {
				it.leftHashes = make([]uint64, n)
			}
			it.leftHashes = it.leftHashes[:n]
			vec.HashRows(it.leftKeyCols, it.leftHashes)
			continue
		}
		i := it.leftRowIdx
		it.leftRowIdx++
		kv := it.keyVals[:0]
		for k := range it.leftKeyCols {
			kv = append(kv, it.leftKeyCols[k][i])
		}
		it.curLeftMatched = false
		it.curRow = -1
		// NULL probe keys never match; a LEFT JOIN still NULL-extends them.
		if !hasNull(kv) {
			h := it.leftHashes[i]
			it.curTable = it.tables[h%uint64(len(it.tables))]
			it.curRow = it.curTable.match(h, kv)
		}
		it.curLeftActive = it.curRow >= 0 || it.kind == logical.LeftJoin
		if it.curLeftActive {
			it.leftBatch.Gather(i, it.curLeft)
		}
	}
}

// nestedLoopIter handles cross joins and joins without equi-conjuncts. The
// right side is fully materialized.
type nestedLoopIter struct {
	kind                  logical.JoinKind
	left, right           BatchIterator
	leftWidth, rightWidth int
	cond                  *evaluator
	batchSize             int
	m                     *Metrics
	tracker               *memctl.Tracker
	reserved              int64
	released              bool

	built     bool
	rightRows []Row

	leftBatch     *vec.Batch
	leftRowIdx    int
	curLeft       Row
	curLeftActive bool
	matched       bool
	rightIdx      int
	combined      Row
}

func (it *nestedLoopIter) outWidth() int {
	if it.kind == logical.SemiJoin {
		return it.leftWidth
	}
	return it.leftWidth + it.rightWidth
}

func (it *nestedLoopIter) NextBatch() (*vec.Batch, error) {
	if !it.built {
		rows, reserved, err := drainRowsTracked(it.right, it.rightWidth, it.m, it.tracker, opNLJoin)
		if err != nil {
			return nil, err
		}
		it.rightRows = rows
		it.reserved = reserved
		it.m.addHashRows(int64(len(rows)))
		it.curLeft = make(Row, it.leftWidth)
		it.combined = make(Row, it.leftWidth+it.rightWidth)
		it.built = true
	}
	bl := vec.NewBuilder(it.outWidth(), it.batchSize)
	for {
		if it.curLeftActive {
			for it.rightIdx < len(it.rightRows) {
				r := it.rightRows[it.rightIdx]
				it.rightIdx++
				copy(it.combined, it.curLeft)
				copy(it.combined[it.leftWidth:], r)
				if it.cond != nil && !it.cond.eval(it.combined).IsTrue() {
					continue
				}
				if it.kind == logical.SemiJoin {
					bl.Append(it.curLeft)
					it.curLeftActive = false
				} else {
					it.matched = true
					bl.Append(it.combined)
				}
				if bl.Full() {
					return bl.Flush(), nil
				}
				if !it.curLeftActive {
					break
				}
			}
			if it.curLeftActive {
				if it.kind == logical.LeftJoin && !it.matched {
					copy(it.combined, it.curLeft)
					for i := it.leftWidth; i < len(it.combined); i++ {
						it.combined[i] = types.Unknown()
					}
					bl.Append(it.combined)
					if bl.Full() {
						it.curLeftActive = false
						return bl.Flush(), nil
					}
				}
				it.curLeftActive = false
			}
		}
		if it.leftBatch == nil || it.leftRowIdx >= it.leftBatch.Len() {
			b, err := it.left.NextBatch()
			if err != nil {
				return nil, err
			}
			if b == nil {
				if !it.released {
					it.released = true
					if it.reserved > 0 {
						it.tracker.Release(opNLJoin, it.reserved)
					}
				}
				return bl.Flush(), nil
			}
			it.m.addProcessed(int64(b.Len()))
			it.leftBatch, it.leftRowIdx = b, 0
			continue
		}
		it.leftBatch.Gather(it.leftRowIdx, it.curLeft)
		it.leftRowIdx++
		it.curLeftActive = true
		it.matched = false
		it.rightIdx = 0
	}
}
