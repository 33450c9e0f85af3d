package exec

import (
	"sync"
	"sync/atomic"

	"repro/internal/logical"
	"repro/internal/rescache"
	"repro/internal/types"
	"repro/internal/vec"
)

// This file wires the semantic result cache (internal/rescache) into plan
// building. buildResultCached intercepts executor.build ahead of every
// other dispatch: when the operator is an eligible sub-plan shape (a
// Filter/Project chain over one Scan, optionally through one GroupBy) the
// run either replays a cached result — skipping scan, decode and
// evaluation while re-charging the exact as-if-solo logical metrics the
// original computation recorded — or, on a miss the cache deems worth
// capturing (rescache.Tx.Capture), builds the subtree against a private
// Metrics sink and tees its output into a candidate entry, offering it for
// cost-weighted admission at EOF. Any other miss is built exactly as with
// the cache off.

// buildResultCached returns (it, true, nil) when it intercepted op — a
// cache-hit replay or a miss build. ok=false means the caller should build
// op normally.
func (ex *executor) buildResultCached(op logical.Operator) (BatchIterator, bool, error) {
	if ex.rcache == nil || ex.rcDepth > 0 || ex.rcUncaptured > 0 || ex.noPush > 0 {
		return nil, false, nil
	}
	// Begin snapshots the table's partition-set signature BEFORE the
	// subtree build enumerates partitions (the cross-cache epoch-ordering
	// invariant): an Append racing this query can at worst produce a dead
	// entry that fails offer-time revalidation, never a stale hit.
	tx := ex.rcache.Begin(op, ex.store)
	if tx == nil {
		return nil, false, nil
	}
	if ent, ok := tx.Lookup(); ok {
		ex.metrics.ResultCache.Hits++
		ex.metrics.ResultCache.ServedBytes += ent.Bytes
		chargeCost(ex.metrics, ent.Cost)
		return &rowsBatcher{rows: ent.Rows, width: len(op.Schema()), batchSize: ex.opts.BatchSize}, true, nil
	}
	ex.metrics.ResultCache.Misses++
	if !tx.Capture() {
		// Not worth a copy: build with the live metrics and depth, so the
		// layers above configure the subtree's scans (sideways join
		// filters) as they would with the cache off.
		ex.metrics.ResultCache.Deferred++
		ex.rcUncaptured++
		it, err := ex.build(op)
		ex.rcUncaptured--
		return it, true, err
	}

	// Captured miss: build the subtree against a private Metrics so the
	// entry's cost is exactly the sub-plan's own work. Iterators capture the
	// *Metrics at build time, so swapping the pointer for the duration of
	// the recursive build isolates every charge the subtree will ever make;
	// rcDepth suppresses nested probes and hides the subtree's scans from
	// the layers above, so the entry never depends on a join above it.
	parent := ex.metrics
	priv := &Metrics{}
	ex.metrics = priv
	ex.rcDepth++
	in, err := ex.build(op)
	ex.rcDepth--
	ex.metrics = parent
	if err != nil {
		return nil, true, err
	}
	t := &rcTeeIter{in: in, tx: tx, priv: priv, parent: parent, limit: ex.rcache.MaxEntryBytes()}
	// finish must also run on mid-query abandonment (error, cancellation):
	// the private counters fold into the parent exactly once either way,
	// after the subtree's own closers have drained its workers.
	ex.onClose(t.finish)
	return t, true, nil
}

// chargeCost replays an entry's as-if-solo logical charges onto m. The
// physical counters (Share, Pipeline, MaskPrefixHits) stay untouched: a hit
// performs no decode, compiles no pipeline and evaluates no mask, and those
// counters report what actually ran.
func chargeCost(m *Metrics, c rescache.CostMetrics) {
	m.Storage.AddBytes(c.BytesScanned)
	m.Storage.AddRows(c.RowsScanned)
	m.addProcessed(c.RowsProcessed)
	m.addHashRows(c.HashRows)
}

// absorb folds the private capture counters into the parent metrics so a
// miss run reports exactly what a cache-off run would.
func absorb(parent, priv *Metrics) {
	parent.Storage.AddBytes(atomic.LoadInt64(&priv.Storage.BytesScanned))
	parent.Storage.AddRows(atomic.LoadInt64(&priv.Storage.RowsScanned))
	atomic.AddInt64(&parent.Share.BytesDecoded, atomic.LoadInt64(&priv.Share.BytesDecoded))
	atomic.AddInt64(&parent.Share.ChunksDecoded, atomic.LoadInt64(&priv.Share.ChunksDecoded))
	atomic.AddInt64(&parent.Share.CacheHits, atomic.LoadInt64(&priv.Share.CacheHits))
	parent.addProcessed(atomic.LoadInt64(&priv.RowsProcessed))
	parent.addHashRows(atomic.LoadInt64(&priv.HashRows))
	parent.addSpoolWritten(atomic.LoadInt64(&priv.SpoolBytesWritten))
	parent.addSpoolRead(atomic.LoadInt64(&priv.SpoolBytesRead))
	parent.addMaskPrefixHits(atomic.LoadInt64(&priv.MaskPrefixHits))
	parent.addFusedPipelines(atomic.LoadInt64(&priv.Pipeline.FusedPipelines))
	parent.addPipelineBatches(atomic.LoadInt64(&priv.Pipeline.PipelineBatches))
	parent.addMaterializedSaved(atomic.LoadInt64(&priv.Pipeline.MaterializedBatchesSaved))
	// Skip counters are physical (what actually happened), so a capturing
	// miss run folds them up; a replay re-charges logical cost only and
	// correctly reports zero prunes (chargeCost leaves Skip untouched).
	parent.addChunksPruned(atomic.LoadInt64(&priv.Skip.ChunksPruned))
	parent.addPartitionsPruned(atomic.LoadInt64(&priv.Skip.PartitionsPruned))
	parent.addPrunedBytes(atomic.LoadInt64(&priv.Skip.PrunedBytes))
}

// costOf extracts an entry's cost metrics from a drained private capture.
func costOf(priv *Metrics) rescache.CostMetrics {
	return rescache.CostMetrics{
		BytesScanned:  atomic.LoadInt64(&priv.Storage.BytesScanned),
		RowsScanned:   atomic.LoadInt64(&priv.Storage.RowsScanned),
		RowsProcessed: atomic.LoadInt64(&priv.RowsProcessed),
		HashRows:      atomic.LoadInt64(&priv.HashRows),
	}
}

// rcTeeIter streams the captured subtree's batches through unchanged while
// materializing a copy of every row. At EOF it offers the materialized
// result for admission; a result growing past the cache's per-entry bound
// abandons the copy (the stream continues) and offers no rows, only its
// over-limit byte count, so the cache rejects it and remembers why.
type rcTeeIter struct {
	in        BatchIterator
	tx        *rescache.Tx
	priv      *Metrics
	parent    *Metrics
	limit     int64
	width     int
	slabs     []teeSlab
	nrows     int
	bytes     int64
	abandoned bool
	eof       bool
	once      sync.Once
}

// teeSlab holds one batch's captured rows, row-major in one allocation.
// The row slices are cut only at offer time, so a capture that is
// abandoned never builds them.
type teeSlab struct {
	vals []types.Value
	n    int
}

func (t *rcTeeIter) NextBatch() (*vec.Batch, error) {
	b, err := t.in.NextBatch()
	if err != nil {
		return nil, err
	}
	if b == nil {
		t.eof = true
		t.finish()
		return nil, nil
	}
	if !t.abandoned {
		n, w := b.Len(), b.Width()
		t.width = w
		slab := make([]types.Value, n*w)
		for i := 0; i < n; i++ {
			row := slab[i*w : (i+1)*w]
			b.Gather(i, row)
			t.bytes += rescache.RowBytes(row)
		}
		t.slabs = append(t.slabs, teeSlab{vals: slab, n: n})
		t.nrows += n
		if t.bytes > t.limit {
			t.abandoned = true
			t.slabs = nil
		}
	}
	return b, nil
}

// finish folds the private metrics into the parent exactly once and, on a
// cleanly drained stream, offers the captured result for admission.
func (t *rcTeeIter) finish() {
	t.once.Do(func() {
		if t.eof {
			var rows [][]types.Value
			if !t.abandoned {
				// Each row's capacity ends at its width, so no consumer can
				// append into its neighbour in the shared slab.
				rows = make([][]types.Value, 0, t.nrows)
				w := t.width
				for _, s := range t.slabs {
					for i := 0; i < s.n; i++ {
						rows = append(rows, s.vals[i*w:(i+1)*w:(i+1)*w])
					}
				}
			}
			admitted, evicted := t.tx.Offer(rows, t.bytes, costOf(t.priv))
			if !admitted {
				t.parent.ResultCache.AdmissionRejects++
			}
			t.parent.ResultCache.EvictedBytes += evicted
		}
		absorb(t.parent, t.priv)
	})
}
