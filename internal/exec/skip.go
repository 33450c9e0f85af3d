package exec

import (
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// Data skipping. Storage chunks carry write-time zone maps
// (storage.ChunkStats: min/max, null count, NaN flag); this file turns the
// scan predicates that reach a leaf — the chain's own conjuncts, the
// mask-family shared-prefix conjuncts of a fused run, and sideways min/max
// + bloom filters published by hash-join builds — into per-partition prune
// decisions evaluated BEFORE decode.
//
// The contract that keeps every differential in the repo green: pruning
// changes only physical work. Partitions with a provably-empty survivor
// set skip decode, but BytesScanned/RowsScanned are still charged at
// ScanPartitions (unchanged), and RowsProcessed is re-charged exactly
// as-if-scanned — NumRows times the charge schedule the partition's rows
// would have walked (scan emit plus every stage at or below the filter
// that kills them). Under LIMIT the serial scan applies the recharge at
// the consumer-side stream position the partition's batches would have
// occupied, which keeps early exit byte-identical too: a zero-survivor
// partition's batches are consumed atomically by chainIter's loop in a
// no-skip run, so the consumer reaches the partition's position exactly
// when it would have paid for it. Morsel-parallel chains drain totally and
// recharge worker-side.

// SkipMetrics counts data-skipping activity for one run. Counters are
// informational: the logical metrics above are recharged exactly.
type SkipMetrics struct {
	// ChunksPruned counts column chunks whose decode was skipped;
	// PartitionsPruned the partitions they belong to.
	ChunksPruned     int64
	PartitionsPruned int64
	// BloomPruned counts partitions pruned by a sideways bloom filter
	// (min/max overlapped but no build key could match).
	BloomPruned int64
	// PrunedBytes is the encoded payload bytes whose decode was skipped —
	// still charged to BytesScanned, no longer paid in decode work.
	PrunedBytes int64
}

func (m *Metrics) addChunksPruned(n int64)     { atomic.AddInt64(&m.Skip.ChunksPruned, n) }
func (m *Metrics) addPartitionsPruned(n int64) { atomic.AddInt64(&m.Skip.PartitionsPruned, n) }
func (m *Metrics) addBloomPruned(n int64)      { atomic.AddInt64(&m.Skip.BloomPruned, n) }
func (m *Metrics) addPrunedBytes(n int64)      { atomic.AddInt64(&m.Skip.PrunedBytes, n) }

// skipCheck is one compiled zone-map test: prunable reports whether the
// predicate it was compiled from is provably false-or-NULL for every row
// of a chunk with the given stats.
type skipCheck struct {
	col      string
	prunable func(st *storage.ChunkStats, count int) bool
}

// skipController carries a scan leaf's prune state. One controller exists
// per built scan leaf (nil under Options.NoSkip); its checks are filled in
// by whichever layer knows the predicate — the chain's own filter stage, or
// a hash join attaching sideways filters — together with the matching
// RowsProcessed recharge factor.
type skipController struct {
	m    *Metrics
	cols []string
	// rcDepth is the result-cache capture depth the scan was built at.
	// Layers outside the captured subtree (a join build above a captured
	// probe) must not configure checks on it: pruning driven by a predicate
	// that is not part of the cached sub-plan would corrupt the entry other
	// queries replay.
	rcDepth int
	// factor is the as-if-scanned RowsProcessed charge per pruned row:
	// FilterPos+2 for predicate checks (scan emit + stages up to and
	// including the filter), 2+numProjects for sideways filters (scan emit
	// + projects + join probe input).
	factor   int64
	checks   []skipCheck
	sideways []*sidewaysFilter
}

// configure installs predicate-driven zone checks and their recharge
// factor. No-op on a nil controller or when there is nothing to check.
func (sc *skipController) configure(factor int64, checks []skipCheck) {
	if sc == nil || len(checks) == 0 {
		return
	}
	sc.factor = factor
	sc.checks = checks
}

func (sc *skipController) active() bool {
	return sc != nil && (len(sc.checks) > 0 || len(sc.sideways) > 0)
}

// shouldPrune decides whether the partition's survivor set is provably
// empty, bumping the Skip counters on a prune. Safe to call from scan
// workers; the RowsProcessed recharge is the caller's job (consumer-side).
func (sc *skipController) shouldPrune(p *storage.Partition) bool {
	if !sc.active() {
		return false
	}
	pruned, byBloom := false, false
	for _, ck := range sc.checks {
		chunk := p.Chunk(ck.col)
		if chunk == nil {
			continue
		}
		st := chunk.Stats()
		if st == nil {
			continue // legacy stats-less chunk: must decode
		}
		if ck.prunable(st, chunk.Count) {
			pruned = true
			break
		}
	}
	if !pruned {
		for _, sf := range sc.sideways {
			switch sf.check(p) {
			case sidewaysPrune:
				pruned = true
			case sidewaysPruneBloom:
				pruned, byBloom = true, true
			}
			if pruned {
				break
			}
		}
	}
	if !pruned {
		return false
	}
	sc.m.addPartitionsPruned(1)
	sc.m.addChunksPruned(int64(len(sc.cols)))
	if byBloom {
		sc.m.addBloomPruned(1)
	}
	var bytes int64
	for _, c := range sc.cols {
		if ch := p.Chunk(c); ch != nil {
			bytes += ch.Bytes
		}
	}
	sc.m.addPrunedBytes(bytes)
	return true
}

// recharge restores the exact as-if-scanned RowsProcessed for rows pruned
// rows of skipped partitions.
func (sc *skipController) recharge(rows int64) {
	if rows > 0 {
		sc.m.addProcessed(rows * sc.factor)
	}
}

// registerScanCtrl records the controller created for a scan leaf so later
// build stages (a joining hash build) can find it. Every registration
// allocates a fresh record: attachSideways snapshots the record before
// building the probe subtree and only acts when the pointer changed, so a
// result-cache replay (which builds no scan) can never hand it a stale
// controller belonging to an earlier build of the same node. Building the same node twice also marks the record as a
// duplicate, which blocks sideways attachment (ambiguous ownership).
func (ex *executor) registerScanCtrl(s *logical.Scan, ctrl *skipController) {
	if ex.sideCtrls == nil {
		ex.sideCtrls = make(map[*logical.Scan]*scanCtrlReg)
	}
	ex.sideCtrls[s] = &scanCtrlReg{ctrl: ctrl, dup: ex.sideCtrls[s] != nil}
}

// lookupScanCtrl returns the controller of the scan's most recent build in
// this run, nil when none exists (NoSkip, or a cache replay skipped the
// build). Configuring layers must additionally check ctrl.rcDepth against
// their own depth.
func (ex *executor) lookupScanCtrl(s *logical.Scan) (*skipController, bool) {
	reg := ex.sideCtrls[s]
	if reg == nil {
		return nil, false
	}
	return reg.ctrl, reg.dup
}

type scanCtrlReg struct {
	ctrl *skipController
	dup  bool
}

// configureChainSkip installs zone checks for a fused chain's scan from the
// chain's first filter stage, resolved through the project stages below it,
// plus any fused shared-prefix checks RunShared staged for the leaf. The
// recharge factor is fp+2: a pruned row would have charged the scan emit
// plus every stage up to and including the filter that kills it (the same
// schedule ChainShape.SoloRowsProcessed replays for zero survivors). Called
// immediately after scanSource registered the leaf, so the controller is
// necessarily fresh and same-depth.
func (ex *executor) configureChainSkip(cs *chainSpec) {
	ctrl, _ := ex.lookupScanCtrl(cs.scan)
	if ctrl == nil || ctrl.rcDepth != ex.rcDepth {
		return
	}
	fp := -1
	for si := range cs.stages {
		if cs.stages[si].kind == stageFilter {
			fp = si
			break
		}
	}
	if fp < 0 {
		return
	}
	checks := compileSkipChecks(expr.Conjuncts(cs.stages[fp].cond), chainAliasMap(cs, fp))
	checks = append(checks, ex.extraSkip[cs.scan]...)
	ctrl.configure(int64(fp)+2, checks)
}

// feedPrefixSkip stages zone checks compiled from a fused run's mask-family
// shared-prefix conjuncts — the predicate intersection every batched client
// agrees on — for the plan's scan leaf. A root row failing a prefix
// conjunct fails every client's compensating mask, and the fused filter
// admits exactly the union of client rows, so such rows are dropped at the
// chain's filter stage. Requiring exactly one filter stage pins *where*:
// zero survivors at that stage, which is what the chain's recharge factor
// assumes. The checks join whatever the chain's own filter contributes via
// configureChainSkip.
func (ex *executor) feedPrefixSkip(plan logical.Operator, prefix []expr.Expr) {
	cs, ok := compileChain(plan)
	if !ok {
		return
	}
	filters := 0
	for si := range cs.stages {
		if cs.stages[si].kind == stageFilter {
			filters++
		}
	}
	if filters != 1 {
		return
	}
	checks := compileSkipChecks(prefix, chainAliasMap(cs, len(cs.stages)))
	if len(checks) == 0 {
		return
	}
	if ex.extraSkip == nil {
		ex.extraSkip = make(map[*logical.Scan][]skipCheck)
	}
	ex.extraSkip[cs.scan] = checks
}

// scanAliasMap is the identity resolution over a scan leaf: each scan
// output column ID maps to its storage column name.
func scanAliasMap(s *logical.Scan) map[expr.ColumnID]string {
	m := make(map[expr.ColumnID]string, len(s.Cols))
	for i, c := range s.Cols {
		m[c.ID] = s.ColNames[i]
	}
	return m
}

// chainAliasMap resolves column IDs visible at the input of stage upto
// (pass len(stages) for the chain root's output) down to scan column names
// through pure project aliases. IDs crossing a computed assignment drop
// out — predicates over them simply compile to no zone check.
func chainAliasMap(cs *chainSpec, upto int) map[expr.ColumnID]string {
	m := scanAliasMap(cs.scan)
	if upto > len(cs.stages) {
		upto = len(cs.stages)
	}
	for si := 0; si < upto; si++ {
		ss := &cs.stages[si]
		if ss.kind != stageProject {
			continue
		}
		nm := make(map[expr.ColumnID]string, len(ss.assigns))
		for _, a := range ss.assigns {
			if cr, ok := a.E.(*expr.ColumnRef); ok {
				if name, ok2 := m[cr.Col.ID]; ok2 {
					nm[a.Col.ID] = name
				}
			}
		}
		m = nm
	}
	return m
}

// compileSkipChecks turns conjuncts into zone-map checks, resolving column
// references to storage column names through resolve. Only shapes a zone
// map can decide contribute: one scan column compared against a literal
// (either orientation), IS [NOT] NULL on a scan column, and positive IN
// lists of literals. Everything else — column-vs-column, arithmetic,
// non-column operands, unresolvable references — compiles to no check, and
// pruning simply sees fewer opportunities; soundness never depends on
// completeness.
func compileSkipChecks(conjuncts []expr.Expr, resolve map[expr.ColumnID]string) []skipCheck {
	scanCol := func(e expr.Expr) (string, bool) {
		cr, ok := e.(*expr.ColumnRef)
		if !ok {
			return "", false
		}
		name, ok := resolve[cr.Col.ID]
		return name, ok
	}
	var out []skipCheck
	for _, cj := range conjuncts {
		switch x := cj.(type) {
		case *expr.Binary:
			if !x.Op.IsComparison() {
				continue
			}
			if col, ok := scanCol(x.L); ok {
				if lit, ok2 := x.R.(*expr.Literal); ok2 {
					out = append(out, cmpCheck(col, x.Op, lit.Val))
				}
			} else if col, ok := scanCol(x.R); ok {
				if lit, ok2 := x.L.(*expr.Literal); ok2 {
					out = append(out, cmpCheck(col, flipCmp(x.Op), lit.Val))
				}
			}
		case *expr.IsNull:
			if col, ok := scanCol(x.E); ok {
				neg := x.Neg
				out = append(out, skipCheck{col: col, prunable: func(st *storage.ChunkStats, count int) bool {
					if neg {
						return st.NullCount == count // IS NOT NULL over all-NULL
					}
					return st.NullCount == 0 // IS NULL over no-NULL
				}})
			}
		case *expr.InList:
			if x.Neg {
				continue
			}
			col, ok := scanCol(x.E)
			if !ok {
				continue
			}
			lits := make([]types.Value, 0, len(x.List))
			allLit := true
			for _, item := range x.List {
				l, isLit := item.(*expr.Literal)
				if !isLit {
					allLit = false
					break
				}
				lits = append(lits, l.Val)
			}
			if !allLit {
				continue
			}
			out = append(out, skipCheck{col: col, prunable: func(st *storage.ChunkStats, count int) bool {
				for _, v := range lits {
					// A NULL list item yields NULL, never TRUE — it cannot
					// save a row, so it cannot block pruning either.
					if v.Null {
						continue
					}
					if !cmpPrunable(st, count, expr.OpEq, v) {
						return false
					}
				}
				return true
			}})
		}
	}
	return out
}

func cmpCheck(col string, op expr.BinOp, lit types.Value) skipCheck {
	return skipCheck{col: col, prunable: func(st *storage.ChunkStats, count int) bool {
		return cmpPrunable(st, count, op, lit)
	}}
}

// cmpPrunable reports whether `col OP lit` is false-or-NULL for every row
// of a chunk. types.Compare over [Min, Max] spans the contiguous range
// [Compare(Min,lit), Compare(Max,lit)]; the predicate survives only if
// some point of that range satisfies the operator. NaN compares 0 against
// everything under types.Compare, so a NaN-bearing chunk extends the range
// to include 0 (the bounds themselves exclude NaN at write time).
func cmpPrunable(st *storage.ChunkStats, count int, op expr.BinOp, lit types.Value) bool {
	if lit.Null {
		return true // comparison with NULL is NULL for every row
	}
	if st.NullCount == count {
		return true // all-NULL chunk: every comparison is NULL
	}
	lo, hi := 1, -1 // empty range
	if st.HasBounds {
		if !types.Comparable(st.Min.Kind, lit.Kind) {
			return false
		}
		lo = types.Compare(st.Min, lit)
		hi = types.Compare(st.Max, lit)
		if lo > hi {
			lo, hi = hi, lo
		}
	}
	if st.HasNaN {
		if !st.HasBounds {
			lo, hi = 0, 0 // every non-NULL value is NaN
		} else {
			if lo > 0 {
				lo = 0
			}
			if hi < 0 {
				hi = 0
			}
		}
	}
	if lo > hi {
		return false // no usable bounds: must decode
	}
	for c := lo; c <= hi; c++ {
		if expr.CompareHolds(op, c) {
			return false
		}
	}
	return true
}

// ---- Sideways join filters ----

// bloomWords sizes the blocked bloom filter over build keys: 1<<14 bits in
// 256 words. Fixed so parallel build shards can OR-merge their filters.
const bloomWords = 256

func bloomSet(bloom []uint64, h uint64) {
	bits := uint64(1)<<(h&63) | uint64(1)<<((h>>6)&63)
	bloom[(h>>32)%bloomWords] |= bits
}

func bloomMay(bloom []uint64, h uint64) bool {
	bits := uint64(1)<<(h&63) | uint64(1)<<((h>>6)&63)
	return bloom[(h>>32)%bloomWords]&bits == bits
}

// buildKeyStats is the published summary of one key position of a
// completed hash-join build: the range of regular (non-NULL, non-NaN) key
// values, whether NaN keys exist (they join under keysEqual equality), and
// a blocked bloom filter (nil for float keys, whose hash canonicalizes
// NaN).
type buildKeyStats struct {
	hasRows   bool
	hasBounds bool
	min, max  types.Value
	hasNaN    bool
	bloom     []uint64
}

type sidewaysVerdict uint8

const (
	sidewaysPass sidewaysVerdict = iota
	sidewaysPrune
	sidewaysPruneBloom
)

// sidewaysFilter connects one hash-join build key position to the probe
// scan column it equi-joins against. state is nil until the build
// completes — probe workers that outrun the build simply do not prune.
// (They cannot: hashJoinIter drains its build before the first probe
// pull, and probe iterators start lazily.)
type sidewaysFilter struct {
	col    string // probe-side scan column
	keyPos int    // build key position (index into rightKeys)
	kind   types.Kind
	state  atomic.Pointer[buildKeyStats]
}

// check decides whether the probe partition can contain any row whose key
// matches a build key. A NULL probe key never matches (and the attaching
// join kinds, inner and semi, drop unmatched rows), so all-NULL chunks
// prune unconditionally once the build is known.
func (sf *sidewaysFilter) check(p *storage.Partition) sidewaysVerdict {
	st := sf.state.Load()
	if st == nil {
		return sidewaysPass
	}
	if !st.hasRows {
		return sidewaysPrune // empty build side: nothing ever matches
	}
	chunk := p.Chunk(sf.col)
	if chunk == nil {
		return sidewaysPass
	}
	cst := chunk.Stats()
	if cst == nil {
		return sidewaysPass
	}
	if cst.NullCount == chunk.Count {
		return sidewaysPrune
	}
	// A NaN probe value can only match a NaN build key (keysEqual equality).
	nanMatch := cst.HasNaN && st.hasNaN
	if !cst.HasBounds {
		// Every non-NULL probe value is NaN.
		if nanMatch {
			return sidewaysPass
		}
		return sidewaysPrune
	}
	if !st.hasBounds {
		// Build has rows but no regular-valued keys (all NaN).
		if nanMatch {
			return sidewaysPass
		}
		return sidewaysPrune
	}
	if types.Compare(cst.Max, st.min) < 0 || types.Compare(cst.Min, st.max) > 0 {
		if nanMatch {
			return sidewaysPass
		}
		return sidewaysPrune
	}
	if st.bloom != nil {
		if miss, decided := bloomDisjoint(st.bloom, cst); decided && miss && !nanMatch {
			return sidewaysPruneBloom
		}
	}
	return sidewaysPass
}

// bloomDisjoint tests whether NO value the chunk can contain is possibly
// present in the build bloom. Integer-family chunks enumerate their value
// domain when the span is small; string chunks decide only the
// single-value case. decided=false means the domain was too wide to test.
func bloomDisjoint(bloom []uint64, cst *storage.ChunkStats) (miss, decided bool) {
	var scratch [1]types.Value
	switch cst.Min.Kind {
	case types.KindInt64, types.KindDate, types.KindBool:
		lo, hi := cst.Min.I, cst.Max.I
		if span := hi - lo; span < 0 || span >= 1024 {
			return false, false
		}
		for v := lo; v <= hi; v++ {
			scratch[0] = types.Value{Kind: cst.Min.Kind, I: v}
			if bloomMay(bloom, vec.HashKey(scratch[:])) {
				return false, true
			}
		}
		return true, true
	case types.KindString:
		if cst.Min.S != cst.Max.S {
			return false, false
		}
		scratch[0] = cst.Min
		return !bloomMay(bloom, vec.HashKey(scratch[:])), true
	}
	return false, false
}

// keyAccum accumulates build-side key statistics during table insertion;
// every build shard keeps one per key position, and the shards' summaries
// merge into shard 0's once the drain is done.
type keyAccum struct {
	kind      types.Kind
	hasRows   bool
	hasBounds bool
	min, max  types.Value
	hasNaN    bool
	bloom     []uint64
	scratch   [1]types.Value
}

func newKeyAccum(kind types.Kind) *keyAccum {
	a := &keyAccum{kind: kind}
	if kind != types.KindFloat64 {
		a.bloom = make([]uint64, bloomWords)
	}
	return a
}

// observe records one inserted (non-NULL-key) build row's key value.
func (a *keyAccum) observe(v types.Value) {
	a.hasRows = true
	if v.Kind == types.KindFloat64 && v.F != v.F {
		a.hasNaN = true
		return
	}
	if !a.hasBounds {
		a.min, a.max, a.hasBounds = v, v, true
	} else {
		if types.Compare(v, a.min) < 0 {
			a.min = v
		}
		if types.Compare(v, a.max) > 0 {
			a.max = v
		}
	}
	if a.bloom != nil {
		a.scratch[0] = v
		bloomSet(a.bloom, vec.HashKey(a.scratch[:]))
	}
}

func (a *keyAccum) merge(b *keyAccum) {
	if b == nil || !b.hasRows {
		return
	}
	a.hasRows = true
	a.hasNaN = a.hasNaN || b.hasNaN
	if b.hasBounds {
		if !a.hasBounds {
			a.min, a.max, a.hasBounds = b.min, b.max, true
		} else {
			if types.Compare(b.min, a.min) < 0 {
				a.min = b.min
			}
			if types.Compare(b.max, a.max) > 0 {
				a.max = b.max
			}
		}
	}
	if a.bloom != nil && b.bloom != nil {
		for i := range a.bloom {
			a.bloom[i] |= b.bloom[i]
		}
	}
}

// publish installs the accumulated summary into the filter, enabling
// probe-side pruning from this point on.
func (a *keyAccum) publish(sf *sidewaysFilter) {
	sf.state.Store(&buildKeyStats{
		hasRows:   a.hasRows,
		hasBounds: a.hasBounds,
		min:       a.min,
		max:       a.max,
		hasNaN:    a.hasNaN,
		bloom:     a.bloom,
	})
}

// probeScan recognizes a join's probe subtree as a pure Project* chain
// over one Scan, returning the leaf and the project stages root-to-leaf.
func probeScan(op logical.Operator) (*logical.Scan, []*logical.Project) {
	var projects []*logical.Project
	for {
		switch o := op.(type) {
		case *logical.Project:
			projects = append(projects, o)
			op = o.Input
		case *logical.Scan:
			return o, projects
		default:
			return nil, nil
		}
	}
}

// attachSideways wires a hash join's build keys into the probe-side scan's
// controller. The probe subtree must be a pure Project* chain over one
// Scan (a Filter would make unmatched-row elimination observable upstream;
// anything else ends the walk), the join must drop unmatched probe rows
// (inner/semi — a LEFT JOIN NULL-extends them, so nothing may be skipped),
// and each attached key must resolve through pure column aliases to a scan
// column of the same kind as the build key (keysEqual equality implies
// range-comparability only within a kind). prev is the probe scan's
// registration snapshotted before the probe subtree build — an unchanged
// record means a cache replay served the probe and no live scan exists.
// Returns the filters for the hashJoinIter to fill at build completion, or
// nil when attachment is unsafe.
func (ex *executor) attachSideways(j *logical.Join, leftKeyExprs, rightKeyExprs []expr.Expr, prev *scanCtrlReg) []*sidewaysFilter {
	if ex.opts.NoSkip {
		return nil
	}
	if j.Kind != logical.InnerJoin && j.Kind != logical.SemiJoin {
		return nil
	}
	scan, projects := probeScan(j.Left)
	if scan == nil {
		return nil
	}
	reg := ex.sideCtrls[scan]
	if reg == nil || reg == prev || reg.dup || reg.ctrl.rcDepth != ex.rcDepth {
		// No live controller (NoSkip, or a cache replay served the probe),
		// an ambiguous double-build, or the probe scan lives inside a
		// result-cache capture whose entry must stay join-independent.
		return nil
	}
	ctrl := reg.ctrl
	if len(ctrl.checks) > 0 || len(ctrl.sideways) > 0 {
		// The leaf already carries a predicate configuration (defensive:
		// the walk above admits no filter) — factors would conflict.
		return nil
	}
	var filters []*sidewaysFilter
	for ki, ke := range leftKeyExprs {
		cr, ok := ke.(*expr.ColumnRef)
		if !ok {
			continue
		}
		id := cr.Col.ID
		// Resolve through the project stages top-down; only pure aliases.
		resolved := true
		for _, p := range projects {
			next, ok := aliasTarget(p, id)
			if !ok {
				resolved = false
				break
			}
			id = next
		}
		if !resolved {
			continue
		}
		col, ok := scanColName(scan, id)
		if !ok {
			continue
		}
		if rightKeyExprs[ki].Type() != colKind(scan, id) {
			continue
		}
		filters = append(filters, &sidewaysFilter{col: col, keyPos: ki, kind: rightKeyExprs[ki].Type()})
	}
	if len(filters) == 0 {
		return nil
	}
	ctrl.factor = int64(2 + len(projects))
	ctrl.sideways = filters
	return filters
}

// aliasTarget resolves output column id through a project stage when its
// assignment is a pure column reference.
func aliasTarget(p *logical.Project, id expr.ColumnID) (expr.ColumnID, bool) {
	for _, a := range p.Cols {
		if a.Col.ID == id {
			if cr, ok := a.E.(*expr.ColumnRef); ok {
				return cr.Col.ID, true
			}
			return 0, false
		}
	}
	return 0, false
}

func scanColName(s *logical.Scan, id expr.ColumnID) (string, bool) {
	for i, c := range s.Cols {
		if c.ID == id {
			return s.ColNames[i], true
		}
	}
	return "", false
}

func colKind(s *logical.Scan, id expr.ColumnID) types.Kind {
	for _, c := range s.Cols {
		if c.ID == id {
			return c.Type
		}
	}
	return types.KindInt64
}
