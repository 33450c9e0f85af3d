package exec

import (
	"errors"
	"sync/atomic"

	"repro/internal/memctl"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// Spill support for hash aggregation. The accumulator hash-partitions its
// groups into numSpillParts partitions by key hash. Under memory pressure a
// partition is dumped: its groups' aggState bits are written to a state
// file ONCE, the groups leave the hash table, and every later input row
// that hashes to the partition is appended raw (global index, keys, mask
// bits, argument values) to a rows file. At finish the partition is
// replayed: the state dump restores the exact accumulator bits and the raw
// rows continue accumulation one row at a time in input order — the same
// arithmetic, in the same order, as if the partition had never left
// memory. That is what keeps float sums bit-for-bit identical to the
// in-memory path: partial aggregates are never merged, accumulation is
// resumed.
//
// Emission order is first-seen order, pinned by group.firstIdx (the global
// input index of the group's first row, unique per group). Each emit run —
// the resident groups, then each replayed partition — is written in
// ascending firstIdx order, and the final merge picks the minimum firstIdx
// across runs, reproducing the no-spill emission order exactly.

// numSpillParts is the partition fan-out of one accumulator. A spill frees
// roughly 1/numSpillParts of the accumulator per dump, and replay needs one
// partition's groups resident at a time.
const numSpillParts = 8

// maxReplayDepth bounds recursive replay re-partitioning: a partition whose
// groups alone exceed the memory budget is split by deeper hash bits and
// each sub-partition replayed independently, up to this many levels
// (numSpillParts^(maxReplayDepth+1) leaf partitions). Past the bound the
// replay fails with the clean ErrMemoryExceeded it would otherwise have
// raised — skew beyond 8^4 partitions under a budget too small for one of
// them is a genuine limit, not a recoverable imbalance.
const maxReplayDepth = 3

// aggSpillPart is one hash partition of an accumulator's group table.
type aggSpillPart struct {
	// spilled is set when the partition has been dumped; from then on its
	// rows go to rowsW and no groups for it live in the hash table.
	spilled   bool
	stateDump *storage.SpillFile   // aggState dump taken at spill time
	rowsW     *storage.SpillWriter // raw rows arriving after the dump
	rowsF     *storage.SpillFile   // rowsW sealed at finish
	// touch is the accumulator clock of the partition's last activity;
	// the victim pick prefers the coldest partition.
	touch int64
	// groups lists the partition's resident groups (maintained only once
	// spilling has activated).
	groups []*group
}

// SpillableBytes reports the reserved bytes a dump could free. Called with
// the pool lock held: a plain atomic load, no accumulator lock.
func (ga *groupAccumulator) SpillableBytes() int64 { return atomic.LoadInt64(&ga.resident) }

func (ga *groupAccumulator) Label() string { return opGroupBy }

// Spill dumps the coldest resident partition to disk. Called by the memctl
// pool without its lock held; takes the accumulator lock, so it serializes
// against consumeBatch.
func (ga *groupAccumulator) Spill() (int64, error) {
	ga.mu.Lock()
	defer ga.mu.Unlock()
	// Scalar aggregation (one group) never spills, and a sealed accumulator
	// is emitting — its remaining state must stay resident.
	if len(ga.keyIdx) == 0 || ga.sealed {
		return 0, nil
	}
	if !ga.spillActive {
		ga.activateSpill()
	}
	// Keep dumping partitions until bytes are actually freed: a partition
	// can hold only pending (not-yet-reserved) groups, and a zero return
	// would wrongly mark this whole accumulator dead for the reservation.
	var freed int64
	for freed == 0 {
		p := ga.pickVictimPart()
		if p < 0 {
			return freed, nil
		}
		f, err := ga.dumpPartition(p)
		if err != nil {
			return freed, err
		}
		freed += f
	}
	return freed, nil
}

// activateSpill assigns every existing group to its hash partition. Until
// the first spill this bookkeeping is skipped entirely, so the no-pressure
// path pays nothing beyond the reservation calls.
func (ga *groupAccumulator) activateSpill() {
	ga.spillActive = true
	for _, g := range ga.order {
		g.part = int(g.hash % numSpillParts)
		ga.parts[g.part].groups = append(ga.parts[g.part].groups, g)
	}
}

// pickVictimPart chooses the coldest (oldest touch) resident partition,
// breaking ties toward the one holding more bytes.
func (ga *groupAccumulator) pickVictimPart() int {
	best := -1
	var bestTouch, bestBytes int64
	for p := range ga.parts {
		pt := &ga.parts[p]
		if pt.spilled || len(pt.groups) == 0 {
			continue
		}
		var pb int64
		for _, g := range pt.groups {
			pb += groupMemBytes(g.keyVals, len(ga.aggs.aggs))
		}
		if best < 0 || pt.touch < bestTouch || (pt.touch == bestTouch && pb > bestBytes) {
			best, bestTouch, bestBytes = p, pt.touch, pb
		}
	}
	return best
}

// dumpPartition writes partition p's aggState bits to a state file, opens
// its rows file, and drops its groups from the table. Caller holds ga.mu.
func (ga *groupAccumulator) dumpPartition(p int) (int64, error) {
	pt := &ga.parts[p]
	nAggs := len(ga.aggs.aggs)
	kw := len(ga.keyIdx)
	w, err := storage.NewSpillWriter(ga.spillDir, 1+kw+6*nAggs)
	if err != nil {
		return 0, err
	}
	rec := make([]types.Value, 1+kw+6*nAggs)
	var freed int64
	for _, g := range pt.groups {
		rec[0] = types.Int(g.firstIdx)
		copy(rec[1:], g.keyVals)
		off := 1 + kw
		for ai := range g.states {
			st := &g.states[ai]
			rec[off] = types.Int(st.count)
			rec[off+1] = types.Int(st.sumI)
			rec[off+2] = types.Float(st.sumF)
			rec[off+3] = types.Bool(st.seen)
			rec[off+4] = st.min
			rec[off+5] = st.max
			off += 6
		}
		if err := w.Append(rec); err != nil {
			w.Abort()
			return 0, err
		}
		if g.reserved {
			freed += groupMemBytes(g.keyVals, nAggs)
		}
	}
	dump, err := w.Finish()
	if err != nil {
		return 0, err
	}
	rw, err := storage.NewSpillWriter(ga.spillDir, ga.rowRecWidth())
	if err != nil {
		dump.Close()
		return 0, err
	}
	pt.stateDump = dump
	pt.rowsW = rw
	pt.spilled = true
	for _, g := range pt.groups {
		ga.dropGroup(g)
	}
	keep := make([]*group, 0, len(ga.order)-len(pt.groups))
	for _, g := range ga.order {
		if g.part != p {
			keep = append(keep, g)
		}
	}
	ga.order = keep
	pt.groups = nil
	atomic.AddInt64(&ga.resident, -freed)
	ga.tracker.Release(opGroupBy, freed)
	ga.tracker.AddSpill(opGroupBy, dump.Bytes(), 1)
	return freed, nil
}

// rowRecWidth is the spilled-row record: global input index, group keys,
// one boolean per shared FILTER mask, one argument value per aggregate.
func (ga *groupAccumulator) rowRecWidth() int {
	return 1 + len(ga.keyIdx) + ga.nMasks + len(ga.argEvs)
}

// groupStream yields finished result rows (keys then aggregate results) in
// ascending firstIdx order.
type groupStream interface {
	next(dst Row) (firstIdx int64, ok bool, err error)
}

// seal marks the accumulator as emitting: from here on Spill() is a no-op,
// its remaining state stays resident until flushed or streamed.
func (ga *groupAccumulator) seal() {
	ga.mu.Lock()
	ga.sealed = true
	ga.mu.Unlock()
}

// spilledAny reports whether any partition has been dumped. Only stable
// once the accumulator is sealed.
func (ga *groupAccumulator) spilledAny() bool {
	ga.mu.Lock()
	defer ga.mu.Unlock()
	for p := range ga.parts {
		if ga.parts[p].spilled {
			return true
		}
	}
	return false
}

// flushResident writes the resident groups to an emit run and releases
// their budget. groupByIter uses it to drop every shard's reservation
// before any shard replays: replay reserves against the pool, and sibling
// shards' frozen resident bytes must not squeeze it out.
func (ga *groupAccumulator) flushResident() error {
	ga.mu.Lock()
	defer ga.mu.Unlock()
	if len(ga.order) == 0 {
		return nil
	}
	f, err := ga.writeEmitRun(ga.order)
	if err != nil {
		return err
	}
	ga.runs = append(ga.runs, f)
	ga.order = nil
	ga.groups = make(map[uint64]*group)
	return nil
}

// finish seals the accumulator and returns its result streams, each in
// ascending firstIdx order: the resident groups, then one stream per emit
// run. The caller must have unregistered the accumulator from the pool
// first, and flushed its resident groups if any shard spilled (freeing
// their budget for replay). Each spilled partition is replayed one at a
// time into an emit run.
func (ga *groupAccumulator) finish() ([]groupStream, error) {
	ga.mu.Lock()
	defer ga.mu.Unlock()
	ga.sealed = true
	var streams []groupStream
	if len(ga.order) > 0 {
		streams = append(streams, &memGroupStream{ga: ga, groups: ga.order, keyWidth: len(ga.keyIdx), aggs: ga.aggs.aggs})
	}
	for p := range ga.parts {
		pt := &ga.parts[p]
		if !pt.spilled {
			continue
		}
		rowsF, err := pt.rowsW.Finish()
		if err != nil {
			return nil, err
		}
		pt.rowsW = nil
		pt.rowsF = rowsF
		ga.tracker.AddSpill(opGroupBy, rowsF.Bytes(), 1)
		if err := ga.replayFiles(pt.stateDump, pt.rowsF, 0); err != nil {
			return nil, err
		}
		pt.stateDump.Close()
		pt.stateDump = nil
		pt.rowsF.Close()
		pt.rowsF = nil
	}
	emitW := 1 + len(ga.keyIdx) + len(ga.aggs.aggs)
	for _, f := range ga.runs {
		streams = append(streams, &emitRunStream{f: f, rd: f.NewReader(), rec: make([]types.Value, emitW)})
	}
	return streams, nil
}

// writeEmitRun renders groups (already in ascending firstIdx order) into
// an emit-run file of (firstIdx, keys, results) records and releases their
// reservations. Caller holds ga.mu.
func (ga *groupAccumulator) writeEmitRun(groups []*group) (*storage.SpillFile, error) {
	kw := len(ga.keyIdx)
	nAggs := len(ga.aggs.aggs)
	w, err := storage.NewSpillWriter(ga.spillDir, 1+kw+nAggs)
	if err != nil {
		return nil, err
	}
	rec := make([]types.Value, 1+kw+nAggs)
	var freed int64
	for _, g := range groups {
		rec[0] = types.Int(g.firstIdx)
		copy(rec[1:], g.keyVals)
		for ai := range ga.aggs.aggs {
			rec[1+kw+ai] = g.states[ai].result(ga.aggs.aggs[ai].agg)
		}
		if err := w.Append(rec); err != nil {
			w.Abort()
			return nil, err
		}
		if g.reserved {
			freed += groupMemBytes(g.keyVals, nAggs)
			g.reserved = false
		}
	}
	f, err := w.Finish()
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&ga.resident, -freed)
	ga.tracker.Release(opGroupBy, freed)
	ga.tracker.AddSpill(opGroupBy, f.Bytes(), 1)
	return f, nil
}

// replayFiles replays one partition's (state dump, raw rows) file pair into
// an emit run. When the partition's groups alone exceed the memory budget —
// skew that no dump during the consume phase could relieve — the pair is
// split by the next three hash bits into numSpillParts sub-pairs and each
// replayed recursively, so only one sub-partition's groups need residency
// at a time; maxReplayDepth bounds the recursion, past which the memory
// error surfaces cleanly. Caller holds ga.mu and owns closing state/rows.
func (ga *groupAccumulator) replayFiles(state, rows *storage.SpillFile, depth int) error {
	porder, err := ga.replayPair(state, rows)
	if err == nil {
		if len(porder) > 0 {
			f, err := ga.writeEmitRun(porder)
			if err != nil {
				return err
			}
			ga.runs = append(ga.runs, f)
		}
		for _, g := range porder {
			ga.dropGroup(g)
		}
		return nil
	}
	if depth >= maxReplayDepth || !errors.Is(err, memctl.ErrMemoryExceeded) {
		return err
	}
	subStates, subRows, err := ga.splitPair(state, rows, depth)
	if err != nil {
		return err
	}
	closeFrom := func(i int) {
		for ; i < numSpillParts; i++ {
			subStates[i].Close()
			subRows[i].Close()
		}
	}
	for i := 0; i < numSpillParts; i++ {
		err := ga.replayFiles(subStates[i], subRows[i], depth+1)
		subStates[i].Close()
		subRows[i].Close()
		if err != nil {
			closeFrom(i + 1)
			return err
		}
	}
	return nil
}

// splitPair re-partitions a replay pair by hash bits one level deeper than
// the ones that selected it: record i of either file goes to sub-pair
// (HashKey(keys) >> 3*(depth+1)) % numSpillParts. Sequential reads and
// appends preserve relative record order, so every sub-pair inherits the
// parent's ordering invariants (state records ascending by firstIdx, row
// records in input order, post-dump indices above pre-dump ones).
func (ga *groupAccumulator) splitPair(state, rows *storage.SpillFile, depth int) (subStates, subRows []*storage.SpillFile, err error) {
	kw := len(ga.keyIdx)
	shift := uint(3 * (depth + 1))
	split := func(f *storage.SpillFile, width int) ([]*storage.SpillFile, error) {
		ws := make([]*storage.SpillWriter, numSpillParts)
		abort := func() {
			for _, w := range ws {
				if w != nil {
					w.Abort()
				}
			}
		}
		for i := range ws {
			w, err := storage.NewSpillWriter(ga.spillDir, width)
			if err != nil {
				abort()
				return nil, err
			}
			ws[i] = w
		}
		rd := f.NewReader()
		rec := make([]types.Value, width)
		for {
			ok, err := rd.Next(rec)
			if err != nil {
				abort()
				return nil, err
			}
			if !ok {
				break
			}
			sub := int((vec.HashKey(rec[1:1+kw]) >> shift) % numSpillParts)
			if err := ws[sub].Append(rec); err != nil {
				abort()
				return nil, err
			}
		}
		files := make([]*storage.SpillFile, numSpillParts)
		for i, w := range ws {
			sf, err := w.Finish()
			ws[i] = nil
			if err != nil {
				abort()
				for j := 0; j < i; j++ {
					files[j].Close()
				}
				return nil, err
			}
			files[i] = sf
			ga.tracker.AddSpill(opGroupBy, sf.Bytes(), 1)
		}
		return files, nil
	}
	subStates, err = split(state, 1+kw+6*len(ga.aggs.aggs))
	if err != nil {
		return nil, nil, err
	}
	subRows, err = split(rows, ga.rowRecWidth())
	if err != nil {
		for _, f := range subStates {
			f.Close()
		}
		return nil, nil, err
	}
	return subStates, subRows, nil
}

// replayPair restores a state dump and resumes accumulation over its raw
// rows, in input order — bit-for-bit the arithmetic of the never-spilled
// path. Returns the pair's groups in ascending firstIdx order: restored
// groups (dumped in discovery order, which is ascending) followed by groups
// first seen after the dump (file order, also ascending, and every
// post-dump index exceeds every pre-dump one). On error — including memory
// exhaustion, which the caller may recover from by re-partitioning — every
// side effect of the attempt is rolled back: reservations released, groups
// removed from the table, the created-groups count restored. Caller holds
// ga.mu; replay reservations are safe because the accumulator is already
// unregistered, so the pool can never route a spill back into this lock.
func (ga *groupAccumulator) replayPair(state, rows *storage.SpillFile) ([]*group, error) {
	kw := len(ga.keyIdx)
	nAggs := len(ga.aggs.aggs)
	var porder []*group
	var pendBytes, reservedHere, createdHere int64
	reserve := func(force bool) error {
		if pendBytes == 0 || (!force && pendBytes < 64<<10) {
			return nil
		}
		if err := ga.tracker.Reserve(opGroupBy, pendBytes); err != nil {
			return err
		}
		atomic.AddInt64(&ga.resident, pendBytes)
		reservedHere += pendBytes
		pendBytes = 0
		return nil
	}
	fail := func(err error) ([]*group, error) {
		for _, g := range porder {
			ga.dropGroup(g)
		}
		ga.groupsCreated -= createdHere
		if reservedHere > 0 {
			atomic.AddInt64(&ga.resident, -reservedHere)
			ga.tracker.Release(opGroupBy, reservedHere)
		}
		return nil, err
	}

	srd := state.NewReader()
	srec := make([]types.Value, 1+kw+6*nAggs)
	for {
		ok, err := srd.Next(srec)
		if err != nil {
			return fail(err)
		}
		if !ok {
			break
		}
		g := &group{
			keyVals:  append([]types.Value{}, srec[1:1+kw]...),
			states:   make([]aggState, nAggs),
			hash:     vec.HashKey(srec[1 : 1+kw]),
			firstIdx: srec[0].I,
			part:     -1,
			reserved: true,
		}
		off := 1 + kw
		for ai := range g.states {
			st := &g.states[ai]
			st.count = srec[off].I
			st.sumI = srec[off+1].I
			st.sumF = srec[off+2].F
			st.seen = srec[off+3].IsTrue()
			st.min = srec[off+4]
			st.max = srec[off+5]
			off += 6
		}
		ga.putGroup(g)
		porder = append(porder, g)
		pendBytes += groupMemBytes(g.keyVals, nAggs)
		if err := reserve(false); err != nil {
			return fail(err)
		}
	}

	rrd := rows.NewReader()
	rrec := make([]types.Value, ga.rowRecWidth())
	maskOff := 1 + kw
	argOff := maskOff + ga.nMasks
	for {
		ok, err := rrd.Next(rrec)
		if err != nil {
			return fail(err)
		}
		if !ok {
			break
		}
		kv := rrec[1 : 1+kw]
		h := vec.HashKey(kv)
		g := ga.findGroup(h, kv)
		if g == nil {
			g = &group{
				keyVals:  append([]types.Value{}, kv...),
				states:   make([]aggState, nAggs),
				hash:     h,
				firstIdx: rrec[0].I,
				part:     -1,
				reserved: true,
			}
			ga.putGroup(g)
			porder = append(porder, g)
			ga.groupsCreated++
			createdHere++
			pendBytes += groupMemBytes(g.keyVals, nAggs)
			if err := reserve(false); err != nil {
				return fail(err)
			}
		}
		for ai := range ga.aggs.aggs {
			a := &ga.aggs.aggs[ai]
			if a.maskIdx >= 0 && !rrec[maskOff+a.maskIdx].IsTrue() {
				continue
			}
			g.states[ai].add(a.agg.Fn, rrec[argOff+ai])
		}
	}
	if err := reserve(true); err != nil {
		return fail(err)
	}
	return porder, nil
}

// closeSpillFiles removes every spill artifact (idempotent); registered
// with executor.onClose so mid-query abandonment leaves the spill
// directory clean.
func (ga *groupAccumulator) closeSpillFiles() {
	ga.mu.Lock()
	defer ga.mu.Unlock()
	for p := range ga.parts {
		pt := &ga.parts[p]
		if pt.rowsW != nil {
			pt.rowsW.Abort()
			pt.rowsW = nil
		}
		if pt.stateDump != nil {
			pt.stateDump.Close()
			pt.stateDump = nil
		}
		if pt.rowsF != nil {
			pt.rowsF.Close()
			pt.rowsF = nil
		}
	}
	for _, f := range ga.runs {
		f.Close()
	}
	ga.runs = nil
}

// memGroupStream streams in-memory groups in discovery order — the
// no-spill path, byte-identical to the pre-memctl emission. Each group's
// reservation is released as it streams out: the accumulator is sealed and
// unregistered by now, so holding the full table's budget through emission
// would squeeze downstream operators (join builds consuming this output)
// out of memory they could otherwise use. Groups never emitted (the query
// was abandoned mid-stream) stay charged until the tracker closes.
type memGroupStream struct {
	ga       *groupAccumulator
	groups   []*group
	keyWidth int
	aggs     []compiledAgg
	i        int
}

func (s *memGroupStream) next(dst Row) (int64, bool, error) {
	if s.i >= len(s.groups) {
		return 0, false, nil
	}
	g := s.groups[s.i]
	s.i++
	copy(dst, g.keyVals)
	for ai := range s.aggs {
		dst[s.keyWidth+ai] = g.states[ai].result(s.aggs[ai].agg)
	}
	if g.reserved {
		g.reserved = false
		gb := groupMemBytes(g.keyVals, len(s.aggs))
		atomic.AddInt64(&s.ga.resident, -gb)
		s.ga.tracker.Release(opGroupBy, gb)
	}
	return g.firstIdx, true, nil
}

// emitRunStream streams one emit-run file; the file is removed as soon as
// the stream exhausts it.
type emitRunStream struct {
	f   *storage.SpillFile
	rd  *storage.SpillReader
	rec []types.Value
}

func (s *emitRunStream) next(dst Row) (int64, bool, error) {
	ok, err := s.rd.Next(s.rec)
	if err != nil || !ok {
		s.f.Close()
		return 0, false, err
	}
	copy(dst, s.rec[1:])
	return s.rec[0].I, true, nil
}

// groupEmitter renders every shard's groupStreams (resident groups and emit
// runs alike) into output batches, merging across streams by firstIdx —
// indices are globally unique (one per input row), so the merge order is
// total and equals the first-seen order of a single shard.
type groupEmitter struct {
	streams   []groupStream
	width     int
	batchSize int

	heads  []Row
	idxs   []int64
	live   []bool
	primed bool
}

func (e *groupEmitter) NextBatch() (*vec.Batch, error) {
	if !e.primed {
		e.heads = make([]Row, len(e.streams))
		e.idxs = make([]int64, len(e.streams))
		e.live = make([]bool, len(e.streams))
		for i, s := range e.streams {
			e.heads[i] = make(Row, e.width)
			idx, ok, err := s.next(e.heads[i])
			if err != nil {
				return nil, err
			}
			e.idxs[i], e.live[i] = idx, ok
		}
		e.primed = true
	}
	bl := vec.NewBuilder(e.width, e.batchSize)
	for !bl.Full() {
		best := -1
		for i := range e.streams {
			if !e.live[i] {
				continue
			}
			if best < 0 || e.idxs[i] < e.idxs[best] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		bl.Append(e.heads[best])
		idx, ok, err := e.streams[best].next(e.heads[best])
		if err != nil {
			return nil, err
		}
		e.idxs[best], e.live[best] = idx, ok
	}
	return bl.Flush(), nil
}
