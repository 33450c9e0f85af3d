package exec

import (
	"time"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/storage"
)

// Cross-query shared execution support (internal/xfuse). A fused plan built
// by folding several clients' plans through core.Fuse executes exactly once;
// each client subscribes to the fused root with a compensating predicate
// (its Fuse-produced L/R conjuncts, which reconstruct "my rows" out of the
// union) and the positions of its output columns in the fused schema. The
// demux evaluates every subscriber's predicate per root batch through one
// mask family — the same shared-prefix factoring kernel the fused
// aggregation masks use — so N subscribers cost one pass, not N.

// SharedSub is one subscriber of a fused plan's output: one client's rows.
type SharedSub struct {
	// Comp is the compensating predicate over the fused root schema
	// selecting this client's rows; nil means every row qualifies.
	Comp expr.Expr
	// Cols are the client's output column positions in the fused root
	// schema, in the client's own output order.
	Cols []int
}

// RunShared builds and drains a fused plan once, routing each surviving row
// to every subscriber whose compensating predicate admits it. The returned
// Result carries the fused run's physical metrics (its Rows are nil — the
// per-subscriber slices are the output); perSub[i] holds subscriber i's
// rows, projected to its columns, in fused scan order — which for chains
// preserved by Fuse is exactly the client's solo row order.
func RunShared(plan logical.Operator, store *storage.Store, opts Options, subs []SharedSub) (*Result, [][]Row, error) {
	opts = opts.withDefaults()
	ex := newExecutor(store, opts)
	defer ex.close()
	start := time.Now()

	masks := make([]expr.Expr, len(subs))
	for i, s := range subs {
		if s.Comp == nil {
			masks[i] = expr.TrueExpr()
		} else {
			masks[i] = s.Comp
		}
	}
	spec := newMaskFamilySpec(masks, layoutOf(plan))
	fam, err := spec.instantiate()
	if err != nil {
		return nil, nil, err
	}
	if !opts.NoSkip && len(spec.prefixExprs) > 0 {
		// The factoring's shared prefix is the predicate intersection every
		// batched client agrees on — exactly the ISSUE's "prune once on
		// behalf of the whole batch" opportunity. Stage it for the plan's
		// scan leaf before building.
		ex.feedPrefixSkip(plan, spec.prefixExprs)
	}

	it, err := ex.build(plan)
	if err != nil {
		return nil, nil, err
	}
	perSub := make([][]Row, len(subs))
	for {
		b, err := it.NextBatch()
		if err != nil {
			return nil, nil, err
		}
		if b == nil {
			break
		}
		n := b.Len()
		truths := fam.eval(b)
		for mi := range subs {
			t := truths[mi]
			cols := subs[mi].Cols
			for i := 0; i < n; i++ {
				if !t.True(i) {
					continue
				}
				phys := b.RowIdx(i)
				row := make(Row, len(cols))
				for j, c := range cols {
					row[j] = b.Cols[c][phys]
				}
				perSub[mi] = append(perSub[mi], row)
			}
		}
	}
	ex.close()
	ex.metrics.addMaskPrefixHits(fam.hits())
	ex.metrics.Elapsed = time.Since(start)
	return &Result{Columns: plan.Schema(), Metrics: *ex.metrics}, perSub, nil
}

// ChainShape is the as-if-solo execution footprint of a fusible chain,
// used by internal/xfuse to attribute logical metrics to a client whose
// query actually ran inside a fused plan. Storage and PrunedRows come from
// replaying the solo plan's partition pruning against live partition
// metadata — the identical ScanPartitions call the solo run would make,
// without decoding anything; the stage counts drive the RowsProcessed
// charge schedule (SoloRowsProcessed).
type ChainShape struct {
	// Storage is what the solo scan would charge (bytes/rows scanned over
	// the partitions surviving the solo plan's pruner).
	Storage storage.Metrics
	// PrunedRows is the row count of those partitions — the solo chain's
	// scan output cardinality.
	PrunedRows int64
	// NumStages is the number of fused chain stages (filters + projects)
	// the solo push pipeline would run.
	NumStages int
	// FilterPos is the index of the chain's filter stage in source-to-sink
	// order, or -1 when pruning consumed the whole predicate (or there was
	// none): every row surviving the scan then survives the chain.
	FilterPos int
}

// AnalyzeChain recognizes root as a fusible chain (the same recognition the
// push pipeline uses, including partition-prune peeling) and returns its
// as-if-solo shape. ok=false when root is not such a chain.
func AnalyzeChain(root logical.Operator, store *storage.Store) (*ChainShape, bool, error) {
	cs, ok := compileChain(root)
	if !ok {
		return nil, false, nil
	}
	sh := &ChainShape{NumStages: len(cs.stages), FilterPos: -1}
	for si := range cs.stages {
		if cs.stages[si].kind == stageFilter {
			sh.FilterPos = si
			break
		}
	}
	parts, err := store.ScanPartitions(cs.scan.Table.Name, cs.scan.ColNames, cs.prune, &sh.Storage)
	if err != nil {
		return nil, true, err
	}
	for _, p := range parts {
		sh.PrunedRows += int64(p.NumRows)
	}
	return sh, true, nil
}

// SoloRowsProcessed is the RowsProcessed a solo run of the chain would
// charge, given survivors rows passing its filter: the scan charges its
// full output, every stage up to and including the filter charges the scan
// cardinality, and every stage above the filter charges the survivors.
// This matches the pull and push engines exactly (they charge identically
// on totally-consumed chains).
func (sh *ChainShape) SoloRowsProcessed(survivors int64) int64 {
	n := sh.PrunedRows
	total := n // scan output charge
	for si := 0; si < sh.NumStages; si++ {
		if sh.FilterPos >= 0 && si > sh.FilterPos {
			total += survivors
		} else {
			total += n
		}
	}
	return total
}
