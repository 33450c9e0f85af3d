package exec

import (
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/scanshare"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// splitPartitionPruneCond peels the conjuncts of cond that reference only
// the scan's partition column into a storage.Pruner (the engine's analogue
// of Athena skipping S3 prefixes). It returns the pruner, the peeled prune
// predicate and the partition column it ranges over (for layers that
// fingerprint pruning work, like the chain-shape cache), and the residual
// predicate (nil when every conjunct pruned). A nil pruner means nothing
// peeled: the caller filters the unpruned scan with cond.
func splitPartitionPruneCond(scan *logical.Scan, cond expr.Expr) (storage.Pruner, expr.Expr, *expr.Column, expr.Expr) {
	if scan.Table.PartitionColumn == "" {
		return nil, nil, nil, cond
	}
	partCol := scan.ColumnFor(scan.Table.PartitionColumn)
	if partCol == nil {
		return nil, nil, nil, cond
	}
	var pruneConjs, residual []expr.Expr
	allowed := map[expr.ColumnID]bool{partCol.ID: true}
	for _, c := range expr.Conjuncts(cond) {
		if expr.RefersOnly(c, allowed) {
			pruneConjs = append(pruneConjs, c)
		} else {
			residual = append(residual, c)
		}
	}
	if len(pruneConjs) == 0 {
		return nil, nil, nil, cond
	}
	pruneCond := expr.And(pruneConjs...)
	env := &expr.SlotEnv{Slots: map[expr.ColumnID]int{partCol.ID: 0}}
	pruner := func(key types.Value) bool {
		env.Row = Row{key}
		return expr.Eval(pruneCond, env).IsTrue()
	}
	if len(residual) == 0 {
		return pruner, pruneCond, partCol, nil
	}
	return pruner, pruneCond, partCol, expr.And(residual...)
}

// scanSource resolves a scan leaf's partitions and assembles what decoding
// them needs: the scan-share cache when sharing is on, and the leaf's
// freshly registered skip controller.
func (ex *executor) scanSource(s *logical.Scan, prune storage.Pruner) ([]*storage.Partition, *morselSource, error) {
	parts, err := ex.store.ScanPartitions(s.Table.Name, s.ColNames, prune, &ex.metrics.Storage)
	if err != nil {
		return nil, nil, err
	}
	src := &morselSource{cols: s.ColNames, batchSize: ex.opts.BatchSize, m: ex.metrics, pool: ex.pool, share: ex.share}
	if !ex.opts.NoSkip {
		// Register a skip controller for this leaf; the chain's own filter
		// or a hash join above will configure it with predicates.
		src.ctrl = &skipController{m: ex.metrics, cols: s.ColNames, rcDepth: ex.rcDepth}
		ex.registerScanCtrl(s, src.ctrl)
	}
	return parts, src, nil
}

// decodePartition is the single decode entry point for both scan drives:
// through the scan-share cache when sharing is on, directly otherwise.
// Physical decode accounting (Metrics.Share) is charged either way, so
// shared-vs-unshared BytesDecoded comparisons are meaningful.
func decodePartition(p *storage.Partition, cols []string, share *scanshare.Manager, m *Metrics) ([][]types.Value, error) {
	if share != nil {
		return share.Decode(p, cols, &m.Share)
	}
	decoded, err := p.DecodeColumns(cols)
	if err != nil {
		return nil, err
	}
	for _, c := range cols {
		m.Share.AddDecoded(p.Chunk(c).Bytes)
	}
	return decoded, nil
}

// scanIter is the serial scan leaf: it decodes each partition's column
// chunks in one pass (the batch analogue of Parquet decode work) and emits
// zero-copy batch-sized windows over the decoded vectors.
type scanIter struct {
	src   *morselSource
	parts []*storage.Partition

	part    int
	decoded [][]types.Value
	rows    int
	off     int
}

func (it *scanIter) NextBatch() (*vec.Batch, error) {
	src := it.src
	for {
		if it.decoded == nil {
			if it.part >= len(it.parts) {
				return nil, nil
			}
			p := it.parts[it.part]
			if src.ctrl.shouldPrune(p) {
				// The serial scan runs in its consumer's pull, so recharging
				// here lands at exactly the stream position the partition's
				// batches would have occupied — LIMIT truncation included.
				src.ctrl.recharge(int64(p.NumRows))
				it.part++
				continue
			}
			d, err := decodePartition(p, src.cols, src.share, src.m)
			if err != nil {
				return nil, err
			}
			it.decoded, it.rows, it.off = d, p.NumRows, 0
		}
		if it.off >= it.rows {
			it.decoded = nil
			it.part++
			continue
		}
		hi := it.off + src.batchSize
		if hi > it.rows {
			hi = it.rows
		}
		cols := make([][]types.Value, len(it.decoded))
		for c := range it.decoded {
			cols[c] = it.decoded[c][it.off:hi]
		}
		n := hi - it.off
		it.off = hi
		src.m.addProcessed(int64(n))
		return vec.NewDense(cols, n), nil
	}
}

type limitIter struct {
	in        BatchIterator
	remaining int64
}

func (it *limitIter) NextBatch() (*vec.Batch, error) {
	if it.remaining <= 0 {
		return nil, nil
	}
	b, err := it.in.NextBatch()
	if b == nil || err != nil {
		return nil, err
	}
	n := int64(b.Len())
	if n <= it.remaining {
		it.remaining -= n
		return b, nil
	}
	// Trim the batch to the first remaining active rows.
	sel := make([]int, it.remaining)
	for i := range sel {
		sel[i] = b.RowIdx(i)
	}
	it.remaining = 0
	return b.WithSel(sel), nil
}

// esrIter enforces the single-row contract of scalar subqueries: exactly
// one output row, NULL-extended when the input is empty, an error when the
// input has more than one row.
type esrIter struct {
	in    BatchIterator
	width int
	done  bool
}

func (it *esrIter) NextBatch() (*vec.Batch, error) {
	if it.done {
		return nil, nil
	}
	it.done = true
	var first Row
	for {
		b, err := it.in.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		n := b.Len()
		if n == 0 {
			continue
		}
		if first != nil || n > 1 {
			return nil, errTooManyRows
		}
		first = make(Row, it.width)
		b.Gather(0, first)
	}
	if first == nil {
		first = make(Row, it.width)
		for i := range first {
			first[i] = types.Unknown()
		}
	}
	bl := vec.NewBuilder(it.width, 1)
	bl.Append(first)
	return bl.Flush(), nil
}
