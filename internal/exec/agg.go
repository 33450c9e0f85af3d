package exec

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/memctl"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// aggState accumulates one aggregate function's value.
type aggState struct {
	count int64
	sumF  float64
	sumI  int64
	min   types.Value
	max   types.Value
	seen  bool
}

func (s *aggState) add(fn expr.AggFunc, v types.Value) {
	switch fn {
	case expr.AggCountStar:
		s.count++
	case expr.AggCount:
		if !v.Null {
			s.count++
		}
	case expr.AggSum, expr.AggAvg:
		if !v.Null {
			s.count++
			s.seen = true
			if v.Kind == types.KindFloat64 {
				s.sumF += v.F
			} else {
				s.sumI += v.I
				s.sumF += float64(v.I)
			}
		}
	case expr.AggMin:
		if !v.Null && (!s.seen || types.Compare(v, s.min) < 0) {
			s.min = v
			s.seen = true
		}
	case expr.AggMax:
		if !v.Null && (!s.seen || types.Compare(v, s.max) > 0) {
			s.max = v
			s.seen = true
		}
	}
}

// addAll folds one aggregate's batch input into a single group's state:
// vals when the aggregate has an argument, count argument-less additions
// (COUNT(*)) otherwise. It is the whole accumulate step of every
// single-group consumer — the keyed accumulator's scalar mode and the
// parallel sink's partials.
func (s *aggState) addAll(fn expr.AggFunc, vals []types.Value, count int) {
	if vals == nil {
		for j := 0; j < count; j++ {
			s.add(fn, types.Value{})
		}
		return
	}
	for j := range vals {
		s.add(fn, vals[j])
	}
}

func (s *aggState) result(agg expr.AggCall) types.Value {
	switch agg.Fn {
	case expr.AggCountStar, expr.AggCount:
		return types.Int(s.count)
	case expr.AggSum:
		if !s.seen {
			return types.NullOf(agg.ResultType())
		}
		if agg.ResultType() == types.KindInt64 {
			return types.Int(s.sumI)
		}
		return types.Float(s.sumF)
	case expr.AggAvg:
		if s.count == 0 {
			return types.NullOf(types.KindFloat64)
		}
		return types.Float(s.sumF / float64(s.count))
	case expr.AggMin:
		if !s.seen {
			return types.NullOf(agg.ResultType())
		}
		return s.min
	default: // Max
		if !s.seen {
			return types.NullOf(agg.ResultType())
		}
		return s.max
	}
}

// orderSensitive reports whether an aggregate's result can depend on the
// order its inputs are accumulated in. Float sums round differently under
// reassociation, so SUM with a float result and AVG (a float sum divided by
// a count) are sensitive; COUNT, COUNT(*), MIN, MAX and integer-result SUM
// (read from the exact int accumulator) are associative and
// order-insensitive. The parallel scalar-aggregation sink merges partial
// states only for insensitive aggregates and replays sensitive ones'
// argument values serially in morsel order.
func orderSensitive(agg expr.AggCall) bool {
	switch agg.Fn {
	case expr.AggAvg:
		return true
	case expr.AggSum:
		return agg.ResultType() != types.KindInt64
	}
	return false
}

// merge folds a later partial o into s for an order-insensitive aggregate.
// Partials must merge in input (morsel) order; for the insensitive set the
// merged state is then identical to serial accumulation.
func (s *aggState) merge(fn expr.AggFunc, o *aggState) {
	switch fn {
	case expr.AggCountStar, expr.AggCount:
		s.count += o.count
	case expr.AggSum:
		s.count += o.count
		s.sumI += o.sumI
		s.sumF += o.sumF
		s.seen = s.seen || o.seen
	case expr.AggMin:
		if o.seen && (!s.seen || types.Compare(o.min, s.min) < 0) {
			s.min = o.min
			s.seen = true
		}
	case expr.AggMax:
		if o.seen && (!s.seen || types.Compare(o.max, s.max) > 0) {
			s.max = o.max
			s.seen = true
		}
	}
}

// compiledAgg is an aggregate with its index into the shared distinct-mask
// table (-1 = no mask) and whether it is orderSensitive.
type compiledAgg struct {
	agg       expr.AggCall
	maskIdx   int
	sensitive bool
}

// compiledAggs shares mask evaluation across aggregates: structurally
// equivalent masks (common when many FILTERed aggregates fuse over one
// input, as in Q09's buckets) are evaluated once per batch. It is
// immutable after compileAggs and shared by every worker of an operator.
type compiledAggs struct {
	aggs    []compiledAgg
	maskAst []expr.Expr
}

func compileAggs(aggs []logical.AggAssign) *compiledAggs {
	out := &compiledAggs{aggs: make([]compiledAgg, len(aggs))}
	// Masks dedup by canonical form: `a AND b` and `b AND a` share one slot
	// in the mask set. The canonical AST is what gets compiled —
	// Simplify/normalize preserve three-valued semantics, and the conjunct
	// order it fixes is the order the family factors on.
	maskSlot := make(map[string]int)
	for i, a := range aggs {
		ca := compiledAgg{agg: a.Agg, maskIdx: -1, sensitive: orderSensitive(a.Agg)}
		if a.Agg.Mask != nil && !expr.IsTrueLiteral(a.Agg.Mask) {
			// A mask that folds to TRUE leaves the aggregate unmasked.
			if canon := expr.Canonical(a.Agg.Mask); !expr.IsTrueLiteral(canon) {
				key := canon.String()
				found, ok := maskSlot[key]
				if !ok {
					found = len(out.maskAst)
					out.maskAst = append(out.maskAst, canon)
					maskSlot[key] = found
				}
				ca.maskIdx = found
			}
		}
		out.aggs[i] = ca
	}
	return out
}

// aggInputSpec is the goroutine-shareable half of an aggregation's input:
// the compiled aggregates, the layout their arguments bind to, and the
// mask-set spec of the distinct FILTER masks (whose factoring every
// instantiation shares). One spec serves every shard of a keyed
// aggregation and every worker of the parallel sink.
type aggInputSpec struct {
	aggs   *compiledAggs
	layout map[expr.ColumnID]int
	masks  *maskSetSpec
}

func newAggInputSpec(aggs []logical.AggAssign, layout map[expr.ColumnID]int, naiveMasks bool) *aggInputSpec {
	ca := compileAggs(aggs)
	return &aggInputSpec{aggs: ca, layout: layout, masks: newMaskSetSpec(ca.maskAst, layout, naiveMasks)}
}

// instantiate compiles the mask set and argument evaluators for one
// goroutine (both own scratch).
func (sp *aggInputSpec) instantiate() (*aggInput, error) {
	masks, err := sp.masks.instantiate()
	if err != nil {
		return nil, err
	}
	nMasks := len(sp.aggs.maskAst)
	in := &aggInput{
		aggs: sp.aggs, masks: masks, nMasks: nMasks,
		argEvs:   make([]*batchEvaluator, len(sp.aggs.aggs)),
		maskLog:  make([][]int, nMasks),
		maskPhys: make([][]int, nMasks),
		maskSub:  make([]vec.Batch, nMasks),
	}
	for i, a := range sp.aggs.aggs {
		if in.argEvs[i], err = newBatchEvaluator(a.agg.Arg, sp.layout); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// aggInput turns a batch into per-aggregate inputs: masks and arguments are
// evaluated once per batch, vector-wise, and each aggregate is handed the
// rows its mask admits with its argument values over them. The keyed
// accumulator, its scalar mode and the parallel scalar sink all embed one
// and differ only in where they add the values.
type aggInput struct {
	aggs  *compiledAggs
	masks *maskSet
	// nMasks is the distinct mask count — the spill row-record layout
	// depends on it. argEvs[ai] is nil for argument-less aggregates.
	nMasks int
	argEvs []*batchEvaluator

	// Per-batch scratch, reused across batches and valid until the next
	// evalMasks: per mask, the admitted rows' logical indices in the batch,
	// their physical indices, and the batch under that selection.
	maskLog  [][]int
	maskPhys [][]int
	maskSub  []vec.Batch
}

// evalMasks evaluates every distinct mask over b and stages each one's
// admitted rows for input. It returns the truth bitmaps (valid until the
// next call) for callers that need per-row mask booleans.
func (in *aggInput) evalMasks(b *vec.Batch) []*vec.Bitmap {
	truths := in.masks.eval(b)
	for mi, t := range truths {
		mlog, phys := t.AppendTrue(in.maskLog[mi][:0]), in.maskPhys[mi][:0]
		for _, i := range mlog {
			phys = append(phys, b.RowIdx(i))
		}
		in.maskLog[mi], in.maskPhys[mi] = mlog, phys
		in.maskSub[mi] = vec.Batch{Cols: b.Cols, Sel: phys, N: b.N}
	}
	return truths
}

// input hands aggregate ai its share of b after evalMasks(b): sub is b
// restricted to the rows the aggregate's mask admits (b itself when
// unmasked), mlog those rows' logical indices in b (nil when unmasked), and
// vals the argument over sub (nil for argument-less aggregates; evaluator
// scratch, valid until the aggregate's next input). ok is false when the
// mask admits no row.
func (in *aggInput) input(ai int, b *vec.Batch) (sub *vec.Batch, mlog []int, vals []types.Value, ok bool) {
	sub = b
	if mi := in.aggs.aggs[ai].maskIdx; mi >= 0 {
		if mlog = in.maskLog[mi]; len(mlog) == 0 {
			return nil, nil, nil, false
		}
		sub = &in.maskSub[mi]
	}
	if ev := in.argEvs[ai]; ev != nil {
		vals = ev.eval(sub)
	}
	return sub, mlog, vals, true
}

func (ex *executor) buildGroupBy(g *logical.GroupBy) (BatchIterator, error) {
	// Scalar aggregation over a fusible chain becomes a pipeline sink: each
	// morsel's workers push their sub-batches into per-worker partial
	// states, merged in fixed morsel order (pipesink.go). This closes the
	// "scalar aggregation stays serial" gap while keeping float sums
	// bit-for-bit identical to the serial order.
	if len(g.Keys) == 0 && !ex.opts.PullExec && ex.opts.Parallelism > 1 {
		if it, ok, err := ex.buildScalarAggSink(g); ok || err != nil {
			return it, err
		}
	}
	in, err := ex.buildConsumed(g.Input)
	if err != nil {
		return nil, err
	}
	layout := layoutOf(g.Input)
	keyIdx := make([]int, len(g.Keys))
	for i, k := range g.Keys {
		idx, ok := layout[k.ID]
		if !ok {
			return nil, errUnbound(k)
		}
		keyIdx[i] = idx
	}
	scalar := len(g.Keys) == 0
	spec := newAggInputSpec(g.Aggs, layout, ex.opts.NaiveMasks)
	// Keyed aggregations partition across the worker pool: every group lives
	// entirely in the shard its key hashes to, so shards need no
	// coordination and the merged output is byte-identical to the serial
	// order. Scalar aggregation stays serial — one group means one float
	// accumulation order, which parallel partial sums would change.
	spillDir := ex.mempool.SpillDir()
	if !scalar && ex.opts.Parallelism > 1 {
		accs := make([]*groupAccumulator, ex.opts.Parallelism)
		for p := range accs {
			if accs[p], err = newGroupAccumulator(spec, keyIdx, ex.tracker, spillDir); err != nil {
				return nil, err
			}
			ex.tracker.Register(accs[p])
			ex.onClose(accs[p].closeSpillFiles)
		}
		return &parallelGroupByIter{
			in: in, keyIdx: keyIdx, accs: accs, pool: ex.pool,
			batchSize: ex.opts.BatchSize, m: ex.metrics,
		}, nil
	}
	acc, err := newGroupAccumulator(spec, keyIdx, ex.tracker, spillDir)
	if err != nil {
		return nil, err
	}
	if !scalar {
		ex.tracker.Register(acc)
		ex.onClose(acc.closeSpillFiles)
	}
	return &groupByIter{
		in: in, acc: acc, scalar: scalar, batchSize: ex.opts.BatchSize, m: ex.metrics,
	}, nil
}

func errUnbound(c *expr.Column) error {
	return &unboundError{col: c}
}

type unboundError struct{ col *expr.Column }

func (e *unboundError) Error() string {
	return "exec: column " + e.col.String() + " not produced by input"
}

type group struct {
	keyVals []types.Value
	states  []aggState
	// firstIdx is the global input row index of the group's first row. The
	// serial accumulator discovers groups in ascending firstIdx order by
	// construction; the parallel merge interleaves shards back into that
	// exact order, which is what keeps parallel output byte-identical.
	firstIdx int64
	// part is the group's spill partition (-1 until spilling activates);
	// reserved marks that the group's bytes are charged to the tracker.
	part     int
	reserved bool
}

// groupAccumulator is one hash-aggregation shard: a group table plus its own
// aggregate input (batch evaluators own scratch buffers and must not be
// shared across goroutines). The serial aggregation uses a single
// accumulator over every row; the parallel aggregation gives each worker
// one accumulator and routes rows by key hash, so a given group's rows
// always land in the same shard in global input order — per-group
// accumulation (including float sums) is order-identical to serial.
type groupAccumulator struct {
	*aggInput
	keyIdx []int

	groups map[string]*group
	order  []*group // discovery order; ascending firstIdx within one shard
	keyBuf strings.Builder
	kv     []types.Value

	// per-batch scratch
	groupRow []*group
	scalarG  *group

	// memctl integration. mu serializes batch consumption against Spill
	// calls routed in by the pool; resident (atomic) is the reserved bytes
	// a spill could free; clock drives the coldest-partition victim pick;
	// sealed stops spills once emission starts. groupsCreated counts every
	// group ever built (consume plus replay), which equals the no-spill
	// group count — the HashRows metric stays config-independent.
	tracker       *memctl.Tracker
	spillDir      string
	mu            sync.Mutex
	resident      int64
	clock         int64
	spillActive   bool
	sealed        bool
	groupsCreated int64
	parts         [numSpillParts]aggSpillPart
	runs          []*storage.SpillFile

	// per-batch spill scratch: rows routed to spilled partitions, their
	// saved keys, per-mask booleans and per-aggregate argument values
	// (copied before the sub-batch evaluations reuse evaluator scratch).
	spillRows  []int
	spillPart  []int
	spillKeys  [][]types.Value
	spillMaskB [][]bool
	spillArgs  [][]types.Value
	rowRec     []types.Value
}

func newGroupAccumulator(spec *aggInputSpec, keyIdx []int, tracker *memctl.Tracker, spillDir string) (*groupAccumulator, error) {
	in, err := spec.instantiate()
	if err != nil {
		return nil, err
	}
	return &groupAccumulator{
		aggInput:   in,
		keyIdx:     keyIdx,
		groups:     make(map[string]*group),
		kv:         make([]types.Value, len(keyIdx)),
		tracker:    tracker,
		spillDir:   spillDir,
		spillMaskB: make([][]bool, in.nMasks),
		spillArgs:  make([][]types.Value, len(in.argEvs)),
	}, nil
}

// consumeBatch accumulates one batch into the shard. base+log[i] is the
// global input row index of the batch's i-th active row (log nil means the
// identity mapping, i.e. the batch holds consecutive input rows starting at
// base); it pins each new group's firstIdx for the deterministic merge.
//
// The batch is processed under ga.mu (excluding concurrent Spill calls),
// then new groups' bytes are reserved with no lock held — the pool may pick
// this very accumulator as the spill victim. Groups whose partition spilled
// during that window are already on disk, so their share is refunded.
func (ga *groupAccumulator) consumeBatch(b *vec.Batch, base int64, log []int) error {
	ga.mu.Lock()
	pending, newBytes, err := ga.consumeLocked(b, base, log)
	ga.mu.Unlock()
	if err != nil {
		return err
	}
	if newBytes == 0 {
		return nil
	}
	if err := ga.tracker.Reserve(opGroupBy, newBytes); err != nil {
		return err
	}
	var refund int64
	ga.mu.Lock()
	for _, g := range pending {
		gb := groupMemBytes(g.keyVals, len(ga.aggs.aggs))
		if g.part >= 0 && ga.parts[g.part].spilled {
			refund += gb
		} else {
			g.reserved = true
			atomic.AddInt64(&ga.resident, gb)
		}
	}
	ga.mu.Unlock()
	if refund > 0 {
		ga.tracker.Release(opGroupBy, refund)
	}
	return nil
}

func globalIdx(base int64, i int, log []int) int64 {
	if log != nil {
		return base + int64(log[i])
	}
	return base + int64(i)
}

func (ga *groupAccumulator) consumeLocked(b *vec.Batch, base int64, log []int) ([]*group, int64, error) {
	n := b.Len()
	if n == 0 {
		return nil, 0, nil
	}
	// Group assignment per row (accumulation order below stays row-major
	// per group, so float sums match the row engine bit-for-bit).
	scalar := len(ga.keyIdx) == 0
	if cap(ga.groupRow) < n {
		ga.groupRow = make([]*group, n)
	}
	groupRow := ga.groupRow[:n]
	var pending []*group
	var newBytes int64
	nSpill := 0
	if scalar {
		if ga.scalarG == nil {
			ga.scalarG = &group{states: make([]aggState, len(ga.aggs.aggs)), part: -1}
			ga.groups[""] = ga.scalarG
			ga.order = append(ga.order, ga.scalarG)
			ga.groupsCreated++
		}
	} else {
		ga.clock++
		ga.spillRows = ga.spillRows[:0]
		ga.spillPart = ga.spillPart[:0]
		for i := 0; i < n; i++ {
			for k, idx := range ga.keyIdx {
				ga.kv[k] = b.Value(idx, i)
			}
			key := encodeKey(&ga.keyBuf, ga.kv)
			g, ok := ga.groups[key]
			if !ok {
				part := -1
				if ga.spillActive {
					part = int(vec.HashKey(ga.kv) % numSpillParts)
					if ga.parts[part].spilled {
						// The row's group lives on disk: save its key for
						// the raw-row record and skip accumulation.
						if nSpill < len(ga.spillKeys) {
							ga.spillKeys[nSpill] = append(ga.spillKeys[nSpill][:0], ga.kv...)
						} else {
							ga.spillKeys = append(ga.spillKeys, append([]types.Value{}, ga.kv...))
						}
						ga.spillRows = append(ga.spillRows, i)
						ga.spillPart = append(ga.spillPart, part)
						nSpill++
						ga.parts[part].touch = ga.clock
						groupRow[i] = nil
						continue
					}
				}
				g = &group{
					keyVals:  append([]types.Value{}, ga.kv...),
					states:   make([]aggState, len(ga.aggs.aggs)),
					firstIdx: globalIdx(base, i, log),
					part:     part,
				}
				ga.groups[key] = g
				ga.order = append(ga.order, g)
				ga.groupsCreated++
				if part >= 0 {
					ga.parts[part].groups = append(ga.parts[part].groups, g)
				}
				pending = append(pending, g)
				newBytes += groupMemBytes(g.keyVals, len(ga.aggs.aggs))
			}
			groupRow[i] = g
			if g.part >= 0 {
				ga.parts[g.part].touch = ga.clock
			}
		}
	}

	// Masks become selection vectors, shared by every aggregate that
	// carries the same FILTER expression. Spilled rows additionally save
	// their per-mask booleans for the raw-row record.
	truths := ga.evalMasks(b)
	if nSpill > 0 {
		for mi, t := range truths {
			bm := ga.spillMaskB[mi]
			if cap(bm) < nSpill {
				bm = make([]bool, nSpill)
			}
			bm = bm[:nSpill]
			for j, i := range ga.spillRows {
				bm[j] = t.True(i)
			}
			ga.spillMaskB[mi] = bm
		}
		if err := ga.writeSpilledRows(b, base, log, nSpill); err != nil {
			return pending, newBytes, err
		}
	}

	// Tight accumulation loop per aggregate.
	for ai := range ga.aggs.aggs {
		sub, mlog, vals, ok := ga.input(ai, b)
		if !ok {
			continue
		}
		fn := ga.aggs.aggs[ai].agg.Fn
		if scalar {
			ga.scalarG.states[ai].addAll(fn, vals, sub.Len())
			continue
		}
		for j, count := 0, sub.Len(); j < count; j++ {
			li := j
			if mlog != nil {
				li = mlog[j]
			}
			g := groupRow[li]
			if g == nil {
				continue // row spilled to disk this batch
			}
			var v types.Value
			if vals != nil {
				v = vals[j]
			}
			g.states[ai].add(fn, v)
		}
	}
	return pending, newBytes, nil
}

// writeSpilledRows appends this batch's rows bound for spilled partitions
// to their partitions' raw-row files. Argument values are evaluated over
// the full batch and copied out first: the per-aggregate batch evaluators
// reuse scratch buffers, and the accumulation loop below re-evaluates them
// over masked sub-batches.
func (ga *groupAccumulator) writeSpilledRows(b *vec.Batch, base int64, log []int, nSpill int) error {
	for ai, ev := range ga.argEvs {
		if ev == nil {
			continue
		}
		vals := ev.eval(b)
		av := ga.spillArgs[ai]
		if cap(av) < nSpill {
			av = make([]types.Value, nSpill)
		}
		av = av[:nSpill]
		for j, i := range ga.spillRows {
			av[j] = vals[i]
		}
		ga.spillArgs[ai] = av
	}
	recW := ga.rowRecWidth()
	if cap(ga.rowRec) < recW {
		ga.rowRec = make([]types.Value, recW)
	}
	rec := ga.rowRec[:recW]
	kw := len(ga.keyIdx)
	for j := 0; j < nSpill; j++ {
		i := ga.spillRows[j]
		rec[0] = types.Int(globalIdx(base, i, log))
		copy(rec[1:], ga.spillKeys[j])
		off := 1 + kw
		for mi := 0; mi < ga.nMasks; mi++ {
			rec[off+mi] = types.Bool(ga.spillMaskB[mi][j])
		}
		off += ga.nMasks
		for ai := range ga.argEvs {
			if ga.argEvs[ai] == nil {
				rec[off+ai] = types.Value{}
			} else {
				rec[off+ai] = ga.spillArgs[ai][j]
			}
		}
		if err := ga.parts[ga.spillPart[j]].rowsW.Append(rec); err != nil {
			return err
		}
	}
	return nil
}

// groupByIter is a blocking hash aggregation with per-aggregate masks
// (§III.E), run serially through a single accumulator. Group keys are
// compared SQL-DISTINCT-style: NULLs group together.
type groupByIter struct {
	in        BatchIterator
	acc       *groupAccumulator
	scalar    bool
	batchSize int
	m         *Metrics

	built   bool
	emitter *groupEmitter
}

func (it *groupByIter) NextBatch() (*vec.Batch, error) {
	if !it.built {
		if err := it.consume(); err != nil {
			return nil, err
		}
	}
	return it.emitter.NextBatch()
}

func (it *groupByIter) consume() error {
	var base int64
	for {
		b, err := it.in.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		n := b.Len()
		if n == 0 {
			continue
		}
		it.m.addProcessed(int64(n))
		if err := it.acc.consumeBatch(b, base, nil); err != nil {
			return err
		}
		base += int64(n)
	}
	// A scalar aggregate over empty input still produces one default row
	// (uncounted in HashRows, matching the row engine).
	if it.scalar && len(it.acc.order) == 0 {
		it.acc.order = append(it.acc.order, &group{states: make([]aggState, len(it.acc.aggs.aggs)), part: -1})
	}
	// Unregister before finish: replay reservations must never route a
	// spill back into this accumulator's lock.
	it.acc.tracker.Unregister(it.acc)
	stream, err := it.acc.finish()
	if err != nil {
		return err
	}
	it.m.addHashRows(it.acc.groupsCreated)
	it.m.addMaskPrefixHits(it.acc.masks.hits())
	it.emitter = &groupEmitter{
		streams:   []groupStream{stream},
		width:     len(it.acc.keyIdx) + len(it.acc.aggs.aggs),
		batchSize: it.batchSize,
	}
	it.built = true
	return nil
}

// parallelGroupByIter is the partition-wise parallel aggregation: a reader
// pulls input batches in order, hashes each row's group key with the vec
// kernel, and broadcasts the batch to one worker per shard. Worker p
// accumulates exactly the rows whose key hash maps to shard p, in global
// input order, into its own accumulator. Because a group's rows all carry
// the same key hash, each group is built by exactly one shard with the same
// per-group accumulation order as the serial path; the final merge
// interleaves shard streams by first-occurrence index, reproducing serial
// output bytes — whether or not any shard spilled.
type parallelGroupByIter struct {
	in        BatchIterator
	keyIdx    []int
	accs      []*groupAccumulator
	pool      *workerPool
	batchSize int
	m         *Metrics

	built   bool
	emitter *groupEmitter

	errMu    sync.Mutex
	firstErr error
}

func (it *parallelGroupByIter) setErr(err error) {
	it.errMu.Lock()
	if it.firstErr == nil {
		it.firstErr = err
	}
	it.errMu.Unlock()
}

func (it *parallelGroupByIter) getErr() error {
	it.errMu.Lock()
	defer it.errMu.Unlock()
	return it.firstErr
}

// aggTask is one input batch broadcast to every shard worker. hashes[i] is
// the group-key hash of the batch's i-th active row; base is the global
// input row index of the batch's first active row.
type aggTask struct {
	b      *vec.Batch
	hashes []uint64
	base   int64
}

func (it *parallelGroupByIter) NextBatch() (*vec.Batch, error) {
	if !it.built {
		if err := it.consume(); err != nil {
			return nil, err
		}
	}
	return it.emitter.NextBatch()
}

func (it *parallelGroupByIter) consume() error {
	shards := len(it.accs)
	chans := make([]chan aggTask, shards)
	var wg sync.WaitGroup
	for p := 0; p < shards; p++ {
		chans[p] = make(chan aggTask, 2)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			acc := it.accs[p]
			var log, phys []int
			for task := range chans[p] {
				// After a shard error, keep draining the channel without
				// processing so the producer never blocks.
				if it.getErr() != nil {
					continue
				}
				// CPU work runs under a shared pool slot; the slot is never
				// held while waiting on the channel, so stacked parallel
				// operators cannot starve each other into deadlock.
				it.pool.acquire()
				n := task.b.Len()
				log, phys = log[:0], phys[:0]
				for i := 0; i < n; i++ {
					if int(task.hashes[i]%uint64(shards)) == p {
						log = append(log, i)
						phys = append(phys, task.b.RowIdx(i))
					}
				}
				if len(log) > 0 {
					if err := acc.consumeBatch(task.b.WithSel(phys), task.base, log); err != nil {
						it.setErr(err)
					}
				}
				it.pool.release()
			}
		}(p)
	}
	var base int64
	var readErr error
	for {
		if err := it.getErr(); err != nil {
			break
		}
		b, err := it.in.NextBatch()
		if err != nil {
			readErr = err
			break
		}
		if b == nil {
			break
		}
		n := b.Len()
		if n == 0 {
			continue
		}
		it.m.addProcessed(int64(n))
		hashes := make([]uint64, n)
		b.HashColumns(it.keyIdx, hashes)
		task := aggTask{b: b, hashes: hashes, base: base}
		base += int64(n)
		for p := range chans {
			chans[p] <- task
		}
	}
	for p := range chans {
		close(chans[p])
	}
	wg.Wait()
	if readErr != nil {
		return readErr
	}
	if err := it.getErr(); err != nil {
		return err
	}
	// Unregister every shard before any finishes: one shard's replay
	// reservations may spill another, but never a sealed one.
	for _, acc := range it.accs {
		acc.tracker.Unregister(acc)
		acc.seal()
	}
	// If any shard spilled, flush every shard's resident groups to emit
	// runs before the first replay: unregistered shards can no longer be
	// spilled by the pool, so their frozen resident bytes would otherwise
	// squeeze the replay reservations out of the budget.
	anySpill := false
	for _, acc := range it.accs {
		if acc.spilledAny() {
			anySpill = true
			break
		}
	}
	if anySpill {
		for _, acc := range it.accs {
			if err := acc.flushResident(); err != nil {
				return err
			}
		}
	}
	streams := make([]groupStream, len(it.accs))
	var total int64
	for p, acc := range it.accs {
		stream, err := acc.finish()
		if err != nil {
			return err
		}
		streams[p] = stream
		total += acc.groupsCreated
	}
	it.m.addHashRows(total)
	for _, acc := range it.accs {
		it.m.addMaskPrefixHits(acc.masks.hits())
	}
	it.emitter = &groupEmitter{
		streams:   streams,
		width:     len(it.keyIdx) + len(it.accs[0].aggs.aggs),
		batchSize: it.batchSize,
	}
	it.built = true
	return nil
}

// buildMarkDistinct merges a chain of adjacent MarkDistinct operators into
// one physical operator (the paper's §III.F "processing a chain of
// MarkDistinct operators holistically" optimization): one input pass, one
// output batch per input batch, k distinct sets.
func (ex *executor) buildMarkDistinct(md *logical.MarkDistinct) (BatchIterator, error) {
	// Collect the chain innermost-last.
	var chain []*logical.MarkDistinct
	cur := md
	for {
		chain = append(chain, cur)
		inner, ok := cur.Input.(*logical.MarkDistinct)
		if !ok {
			break
		}
		cur = inner
	}
	base := chain[len(chain)-1].Input
	in, err := ex.build(base)
	if err != nil {
		return nil, err
	}

	// Output layout: base schema, then marks innermost-first (matching the
	// logical schema of the nested operators).
	layout := layoutOf(base)
	baseWidth := len(base.Schema())
	marks := make([]markSpec, len(chain))
	for i := range chain {
		node := chain[len(chain)-1-i] // innermost first
		spec := markSpec{onIdx: make([]int, len(node.On)), seen: make(map[string]bool)}
		for k, c := range node.On {
			idx, ok := layout[c.ID]
			if !ok {
				return nil, errUnbound(c)
			}
			spec.onIdx[k] = idx
		}
		if node.Mask != nil {
			if spec.mask, err = newMaskSetSpec([]expr.Expr{node.Mask}, layout, ex.opts.NaiveMasks).instantiate(); err != nil {
				return nil, err
			}
		}
		marks[i] = spec
		// Later (outer) masks may reference earlier mark columns.
		layout[node.MarkCol.ID] = baseWidth + i
	}
	return &markDistinctIter{in: in, baseWidth: baseWidth, marks: marks, m: ex.metrics}, nil
}

type markSpec struct {
	onIdx []int
	// mask qualifies rows for distinctness tracking (nil admits every row).
	mask *maskSet
	seen map[string]bool
}

// markDistinctIter implements §III.F: pass the input through, appending one
// boolean column per mark that is TRUE on the first occurrence of each
// combination of the On columns among rows satisfying the mask (NULLs
// compare as a single distinct value, matching SQL DISTINCT semantics).
// Each input batch becomes one dense output batch extended with the mark
// columns. Marks are computed column-at-a-time: masks are batch-evaluated
// over the progressively extended batch (a mask may reference earlier mark
// columns, never later ones), and the seen-hash is only consulted for rows
// the mask admits.
type markDistinctIter struct {
	in        BatchIterator
	baseWidth int
	marks     []markSpec
	keyBuf    strings.Builder
	kv        []types.Value
	m         *Metrics
}

func (it *markDistinctIter) NextBatch() (*vec.Batch, error) {
	b, err := it.in.NextBatch()
	if b == nil || err != nil {
		return nil, err
	}
	n := b.Len()
	it.m.addProcessed(int64(n))
	width := it.baseWidth + len(it.marks)
	ext := make([][]types.Value, width)
	for c := 0; c < it.baseWidth; c++ {
		if b.Sel == nil {
			ext[c] = b.Cols[c][:n]
		} else {
			col := make([]types.Value, n)
			src := b.Cols[c]
			for i, r := range b.Sel {
				col[i] = src[r]
			}
			ext[c] = col
		}
	}
	// Mark columns are allocated up front so the extended batch is always
	// fully materialized; positions for not-yet-computed marks are
	// don't-cares (masks only look backwards).
	for mi := range it.marks {
		ext[it.baseWidth+mi] = make([]types.Value, n)
	}
	out := &vec.Batch{Cols: ext, N: n}

	firsts := 0
	for mi := range it.marks {
		spec := &it.marks[mi]
		var maskBits *vec.Bitmap
		if spec.mask != nil {
			maskBits = spec.mask.eval(out)[0]
		}
		if cap(it.kv) < len(spec.onIdx) {
			it.kv = make([]types.Value, len(spec.onIdx))
		}
		kv := it.kv[:len(spec.onIdx)]
		markCol := ext[it.baseWidth+mi]
		for i := 0; i < n; i++ {
			first := false
			if maskBits == nil || maskBits.True(i) {
				for k, idx := range spec.onIdx {
					kv[k] = ext[idx][i]
				}
				key := encodeKey(&it.keyBuf, kv)
				if !spec.seen[key] {
					spec.seen[key] = true
					first = true
					firsts++
				}
			}
			markCol[i] = types.Bool(first)
		}
	}
	it.m.addHashRows(int64(firsts))
	return out, nil
}

func (ex *executor) buildWindow(w *logical.Window) (BatchIterator, error) {
	in, err := ex.buildConsumed(w.Input)
	if err != nil {
		return nil, err
	}
	layout := layoutOf(w.Input)
	funcs := make([]windowFunc, len(w.Funcs))
	for i, f := range w.Funcs {
		// compileAggs canonicalizes the mask (a mask folding to TRUE leaves
		// the function unmasked) exactly as the aggregation operators do.
		ca := compileAggs([]logical.AggAssign{{Col: f.Col, Agg: f.Agg}})
		wf := windowFunc{agg: f.Agg, partIdx: make([]int, len(f.PartitionBy))}
		if ca.aggs[0].maskIdx >= 0 {
			if wf.mask, err = newEvaluator(ca.maskAst[0], layout); err != nil {
				return nil, err
			}
		}
		if wf.arg, err = newEvaluator(f.Agg.Arg, layout); err != nil {
			return nil, err
		}
		for k, c := range f.PartitionBy {
			idx, ok := layout[c.ID]
			if !ok {
				return nil, errUnbound(c)
			}
			wf.partIdx[k] = idx
		}
		funcs[i] = wf
	}
	return &windowIter{
		in: in, funcs: funcs, inWidth: len(w.Input.Schema()),
		batchSize: ex.opts.BatchSize, m: ex.metrics, tracker: ex.tracker,
	}, nil
}

// windowFunc is one windowed aggregate. The window operator is the engine's
// one row-at-a-time aggregate consumer, so it owns the row-level closures:
// mask (nil = unmasked) and arg (nil = argument-less).
type windowFunc struct {
	agg     expr.AggCall
	mask    *evaluator
	arg     *evaluator
	partIdx []int
}

// windowIter materializes its input, computes each windowed aggregate per
// partition (unordered full-partition frame), and emits every input row
// extended with its partition's aggregate values. The materialization is
// the cost the paper observes making Q01-class latency gains modest even as
// bytes scanned drop.
type windowIter struct {
	in        BatchIterator
	funcs     []windowFunc
	inWidth   int
	batchSize int
	m         *Metrics
	tracker   *memctl.Tracker

	built  bool
	rows   []Row
	outIdx int
	// per function: row index -> partition state
	states [][]*aggState
	keyBuf strings.Builder
}

func (it *windowIter) NextBatch() (*vec.Batch, error) {
	if !it.built {
		if err := it.consume(); err != nil {
			return nil, err
		}
	}
	if it.outIdx >= len(it.rows) {
		return nil, nil
	}
	width := it.inWidth + len(it.funcs)
	bl := vec.NewBuilder(width, it.batchSize)
	out := make(Row, width)
	for it.outIdx < len(it.rows) && !bl.Full() {
		row := it.rows[it.outIdx]
		copy(out, row)
		for i := range it.funcs {
			out[it.inWidth+i] = it.states[i][it.outIdx].result(it.funcs[i].agg)
		}
		it.outIdx++
		bl.Append(out)
	}
	return bl.Flush(), nil
}

func (it *windowIter) consume() error {
	// The window's materialized input is not spillable; under a tight
	// budget the reservation fails with ErrMemoryExceeded (held until the
	// query's tracker closes).
	rows, _, err := drainRowsTracked(it.in, it.inWidth, it.m, it.tracker, opWindow)
	if err != nil {
		return err
	}
	it.rows = rows
	it.m.addHashRows(int64(len(rows)))
	it.states = make([][]*aggState, len(it.funcs))
	for fi, f := range it.funcs {
		partitions := make(map[string]*aggState)
		rowState := make([]*aggState, len(it.rows))
		kv := make([]types.Value, len(f.partIdx))
		for ri, row := range it.rows {
			for i, idx := range f.partIdx {
				kv[i] = row[idx]
			}
			k := encodeKey(&it.keyBuf, kv)
			st, ok := partitions[k]
			if !ok {
				st = &aggState{}
				partitions[k] = st
			}
			rowState[ri] = st
			if f.mask != nil && !f.mask.eval(row).IsTrue() {
				continue
			}
			var v types.Value
			if f.arg != nil {
				v = f.arg.eval(row)
			}
			st.add(f.agg.Fn, v)
		}
		it.states[fi] = rowState
	}
	it.built = true
	return nil
}

func (ex *executor) buildUnion(u *logical.UnionAll) (BatchIterator, error) {
	inputs := make([]BatchIterator, len(u.Inputs))
	remaps := make([][]int, len(u.Inputs))
	for i, in := range u.Inputs {
		it, err := ex.build(in)
		if err != nil {
			return nil, err
		}
		inputs[i] = it
		layout := layoutOf(in)
		remap := make([]int, len(u.InputCols[i]))
		for j, c := range u.InputCols[i] {
			idx, ok := layout[c.ID]
			if !ok {
				return nil, errUnbound(c)
			}
			remap[j] = idx
		}
		remaps[i] = remap
	}
	return &unionIter{inputs: inputs, remaps: remaps, m: ex.metrics}, nil
}

// unionIter concatenates its inputs, remapping each input's columns to the
// union's output order. The remap is a column-pointer shuffle — no values
// are copied.
type unionIter struct {
	inputs []BatchIterator
	remaps [][]int
	cur    int
	m      *Metrics
}

func (it *unionIter) NextBatch() (*vec.Batch, error) {
	for it.cur < len(it.inputs) {
		b, err := it.inputs[it.cur].NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			it.cur++
			continue
		}
		it.m.addProcessed(int64(b.Len()))
		remap := it.remaps[it.cur]
		cols := make([][]types.Value, len(remap))
		for j, idx := range remap {
			cols[j] = b.Cols[idx]
		}
		return &vec.Batch{Cols: cols, Sel: b.Sel, N: b.N}, nil
	}
	return nil, nil
}
