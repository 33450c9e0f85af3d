package exec

import (
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/scanshare"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// buildFilter builds a filter; when the input is a scan of a partitioned
// table, conjuncts referencing only the partition column are peeled off
// into a partition pruner (the engine's analogue of Athena skipping S3
// prefixes), and the rest stay as the residual predicate.
func (ex *executor) buildFilter(f *logical.Filter) (BatchIterator, error) {
	if scan, ok := f.Input.(*logical.Scan); ok {
		if pruner, residual := splitPartitionPrune(scan, f.Cond); pruner != nil {
			prev := ex.sideCtrls[scan]
			in, err := ex.buildScan(scan, pruner)
			if err != nil {
				return nil, err
			}
			if residual == nil {
				return in, nil
			}
			// Within surviving partitions the partition column is constant
			// and the peeled conjuncts hold, so the residual alone decides
			// survivor sets; pruned rows would have been charged at the scan
			// emit and the filter input (factor 2).
			ex.configureScanSkip(scan, prev, expr.Conjuncts(residual), 2)
			return ex.newFilterIter(in, residual, layoutOf(scan))
		}
	}
	var prev *scanCtrlReg
	scan, isScan := f.Input.(*logical.Scan)
	if isScan {
		prev = ex.sideCtrls[scan]
	}
	in, err := ex.build(f.Input)
	if err != nil {
		return nil, err
	}
	if isScan {
		ex.configureScanSkip(scan, prev, expr.Conjuncts(f.Cond), 2)
	}
	return ex.newFilterIter(in, f.Cond, layoutOf(f.Input))
}

// splitPartitionPrune peels the conjuncts of cond that reference only the
// scan's partition column into a storage.Pruner, returning the pruner and
// the residual predicate (nil when every conjunct pruned). A nil pruner
// means nothing peeled — the caller filters the unpruned scan with cond.
// Both the pull filter and the push-pipeline compiler route through this
// helper, so the two execution models scan exactly the same partitions.
func splitPartitionPrune(scan *logical.Scan, cond expr.Expr) (storage.Pruner, expr.Expr) {
	pruner, _, _, residual := splitPartitionPruneCond(scan, cond)
	return pruner, residual
}

// splitPartitionPruneCond is splitPartitionPrune exposing the peeled prune
// predicate and the partition column it ranges over, for layers that
// fingerprint pruning work (the chain-shape cache) rather than execute it.
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

// newFilterIter compiles a filter predicate as a single-mask set: on the
// default engine that is a one-mask family — flattened conjuncts evaluated
// progressively over shrinking survivors, with bitmap intermediates.
func (ex *executor) newFilterIter(in BatchIterator, cond expr.Expr, layout map[expr.ColumnID]int) (BatchIterator, error) {
	mask, err := newMaskSetSpec([]expr.Expr{cond}, layout, ex.opts.NaiveMasks).instantiate()
	if err != nil {
		return nil, err
	}
	return &filterIter{in: in, mask: mask, m: ex.metrics}, nil
}

// scanSource resolves a scan leaf's partitions and assembles what decoding
// them needs: the scan-share session when sharing is on, and the leaf's
// freshly registered skip controller. Shared by the pull scan builder and
// the push-pipeline compiler so both charge the same BytesScanned and decode
// accounting.
func (ex *executor) scanSource(s *logical.Scan, prune storage.Pruner) ([]*storage.Partition, *morselSource, error) {
	parts, err := ex.store.ScanPartitions(s.Table.Name, s.ColNames, prune, &ex.metrics.Storage)
	if err != nil {
		return nil, nil, err
	}
	src := &morselSource{cols: s.ColNames, batchSize: ex.opts.BatchSize, m: ex.metrics, pool: ex.pool}
	if ex.share != nil {
		src.share = ex.share.Open(s.Table.Name, parts, s.ColNames, &ex.metrics.Share)
	}
	if !ex.opts.NoSkip {
		// Register a skip controller for this leaf; the filter, chain
		// compiler, or a hash join above will configure it with predicates.
		src.ctrl = &skipController{m: ex.metrics, cols: s.ColNames, rcDepth: ex.rcDepth}
		ex.registerScanCtrl(s, src.ctrl)
	}
	return parts, src, nil
}

// closeChain registers a scan leaf's or fused chain's shutdown: stop (nil
// for the serial forms, which own no goroutines) halts the workers and
// waits for them to drain, and only then does the scan-share session close
// — closers run in append order.
func (ex *executor) closeChain(stop func(), share *scanshare.Scan) {
	if stop != nil {
		ex.closers = append(ex.closers, stop)
	}
	if share != nil {
		ex.closers = append(ex.closers, share.Close)
	}
}

func (ex *executor) buildScan(s *logical.Scan, prune storage.Pruner) (BatchIterator, error) {
	parts, src, err := ex.scanSource(s, prune)
	if err != nil {
		return nil, err
	}
	if ex.opts.Parallelism > 1 {
		morsels := buildMorsels(parts, morselTarget(parts, ex.opts.BatchSize, ex.opts.Parallelism))
		if len(morsels) > 1 {
			it := newParallelScan(src, morsels, ex.opts.Parallelism)
			ex.closeChain(it.run.close, src.share)
			return it, nil
		}
	}
	ex.closeChain(nil, src.share)
	return &scanIter{src: src, parts: parts}, nil
}

// decodePartition is the single decode entry point for both scan leaves:
// through the scan-share session when sharing is on, directly otherwise.
// Physical decode accounting (Metrics.Share) is charged either way, so
// shared-vs-unshared BytesDecoded comparisons are meaningful.
func decodePartition(p *storage.Partition, cols []string, share *scanshare.Scan, stop <-chan struct{}, m *Metrics) ([][]types.Value, error) {
	if share != nil {
		return share.Decode(p, stop)
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
			d, err := decodePartition(p, src.cols, src.share, nil, src.m)
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

// filterIter qualifies rows by building a selection vector over its input
// batches — survivors are never materialized here, only marked.
type filterIter struct {
	in   BatchIterator
	mask *maskSet
	m    *Metrics
}

func (it *filterIter) NextBatch() (*vec.Batch, error) {
	for {
		b, err := it.in.NextBatch()
		if b == nil || err != nil {
			return nil, err
		}
		it.m.addProcessed(int64(b.Len()))
		if out := narrow(b, it.mask.eval(b)[0]); out != nil {
			return out, nil
		}
	}
}

func (ex *executor) buildProject(p *logical.Project) (BatchIterator, error) {
	in, err := ex.build(p.Input)
	if err != nil {
		return nil, err
	}
	layout := layoutOf(p.Input)
	evs := make([]batchFn, len(p.Cols))
	for i, a := range p.Cols {
		fn, err := compileBatchExpr(a.E, layout)
		if err != nil {
			return nil, err
		}
		evs[i] = fn
	}
	return &projectIter{in: in, evs: evs, m: ex.metrics}, nil
}

// projectIter evaluates each output expression vector-wise over the active
// rows, producing a dense batch (projection is the materialization point
// where upstream selections compact away).
type projectIter struct {
	in  BatchIterator
	evs []batchFn
	m   *Metrics
}

func (it *projectIter) NextBatch() (*vec.Batch, error) {
	b, err := it.in.NextBatch()
	if b == nil || err != nil {
		return nil, err
	}
	n := b.Len()
	it.m.addProcessed(int64(n))
	cols := make([][]types.Value, len(it.evs))
	for i, fn := range it.evs {
		out := make([]types.Value, n)
		fn(b, out)
		cols[i] = out
	}
	return vec.NewDense(cols, n), nil
}

type valuesIter struct {
	rows      [][]types.Value
	width     int
	batchSize int
	idx       int
}

func (it *valuesIter) NextBatch() (*vec.Batch, error) {
	if it.idx >= len(it.rows) {
		return nil, nil
	}
	bl := vec.NewBuilder(it.width, it.batchSize)
	for it.idx < len(it.rows) && !bl.Full() {
		bl.Append(it.rows[it.idx])
		it.idx++
	}
	return bl.Flush(), nil
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
