package exec

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/logical"
	"repro/internal/memctl"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vec"
)

// buildSort builds the one sort operator. A sort is a pipeline breaker: its
// input — a morsel-parallel fused chain included — is drained through the
// BatchIterator facade, and the sort's own parallelism is in sortIter.build.
func (ex *executor) buildSort(s *logical.Sort) (BatchIterator, error) {
	in, err := ex.buildConsumed(s.Input)
	if err != nil {
		return nil, err
	}
	layout := layoutOf(s.Input)
	evs := make([]*evaluator, len(s.Keys))
	for i, k := range s.Keys {
		if evs[i], err = newEvaluator(k.E, layout); err != nil {
			return nil, err
		}
	}
	it := &sortIter{
		in: in, evs: evs, keys: s.Keys,
		width: len(s.Input.Schema()), batchSize: ex.opts.BatchSize, m: ex.metrics,
		pool: ex.pool, tracker: ex.tracker, spillDir: ex.mempool.SpillDir(),
	}
	// Remove run files even if the query is abandoned mid-emission (LIMIT,
	// error); SpillFile.Close is idempotent, so double-close on the normal
	// path is harmless.
	ex.onClose(it.closeRuns)
	return it, nil
}

// sortIter is a blocking sort with graceful degradation: input rows buffer
// in memory under a memctl reservation, and when the pool asks it to shed
// memory it stable-sorts the buffered rows and writes them to a spill run.
// At end of input the in-memory rows are cut into up to pool-size runs
// sorted in parallel. Emission is a k-way merge of all the sorted runs, or a
// plain batcher when there is only one.
//
// The merge reproduces the in-memory sort bit-for-bit. Each run holds a
// contiguous range of input rows (spill runs are cut in input order and the
// in-memory runs split the leftover in order after them), each run is
// sorted with sort.SliceStable, and merge ties break toward the earlier run —
// so equal keys emit in input order, exactly as one global stable sort
// would. NULLs order last ascending, first descending. The key evaluators
// are compiled row closures that capture no scratch, so the run sorts share
// them.
type sortIter struct {
	in        BatchIterator
	evs       []*evaluator
	keys      []logical.SortKey
	width     int
	batchSize int
	m         *Metrics
	pool      *WorkerPool
	tracker   *memctl.Tracker
	spillDir  string

	// mu guards buf, runs and resident against concurrent Spill calls from
	// the pool. resident is read via atomic by SpillableBytes (which must
	// not block) and only written under mu.
	mu       sync.Mutex
	buf      []Row
	resident int64
	runs     []*storage.SpillFile

	built bool
	// Exactly one of out (one in-memory run) and merge (several runs) is set.
	out   *rowsBatcher
	merge *sortMerger
}

// SpillableBytes reports the buffered input's resident estimate. Called
// with the pool lock held, so it must not take it.mu.
func (it *sortIter) SpillableBytes() int64 { return atomic.LoadInt64(&it.resident) }

func (it *sortIter) Label() string { return opSort }

// Spill sorts the buffered rows and writes them out as one run, freeing
// the buffer's reservation. Called by the pool without its lock held.
func (it *sortIter) Spill() (int64, error) {
	it.mu.Lock()
	defer it.mu.Unlock()
	if len(it.buf) == 0 {
		return 0, nil
	}
	sortRowsStable(it.buf, it.evs, it.keys)
	f, err := writeSortedRun(it.spillDir, it.width, it.buf)
	if err != nil {
		return 0, err
	}
	it.runs = append(it.runs, f)
	freed := it.resident
	atomic.StoreInt64(&it.resident, 0)
	it.buf = nil
	it.tracker.Release(opSort, freed)
	it.tracker.AddSpill(opSort, f.Bytes(), 1)
	return freed, nil
}

// writeSortedRun writes already-sorted rows out as one spill run.
func writeSortedRun(spillDir string, width int, rows []Row) (*storage.SpillFile, error) {
	w, err := storage.NewSpillWriter(spillDir, width)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		if err := w.Append(row); err != nil {
			w.Abort()
			return nil, err
		}
	}
	return w.Finish()
}

func (it *sortIter) closeRuns() {
	it.mu.Lock()
	defer it.mu.Unlock()
	for _, f := range it.runs {
		f.Close()
	}
}

func (it *sortIter) NextBatch() (*vec.Batch, error) {
	if !it.built {
		if err := it.build(); err != nil {
			return nil, err
		}
		it.built = true
	}
	if it.merge != nil {
		return it.merge.NextBatch()
	}
	return it.out.NextBatch()
}

func (it *sortIter) build() error {
	it.tracker.Register(it)
	err := it.drainInput()
	it.tracker.Unregister(it)
	if err != nil {
		return err
	}

	// Snapshot under mu: a Spill picked as victim just before Unregister
	// may still be running and move buf into a new run.
	it.mu.Lock()
	rows, runs, resident := it.buf, it.runs, it.resident
	it.buf = nil
	it.mu.Unlock()

	k := max(1, min(it.pool.Size(), len(rows)/it.batchSize))
	if k == 1 && len(runs) == 0 {
		// One in-memory run: the batcher releases each row's reservation
		// as it streams out.
		sortRowsStable(rows, it.evs, it.keys)
		it.out = &rowsBatcher{
			rows: rows, width: it.width, batchSize: it.batchSize,
			tracker: it.tracker, op: opSort, residual: resident,
		}
		return nil
	}
	cursors := make([]*sortRunCursor, 0, len(runs)+k)
	for _, f := range runs {
		cursors = append(cursors, &sortRunCursor{file: f, rd: f.NewReader(), width: it.width})
	}
	if len(rows) > 0 {
		cursors = append(cursors, it.sortRuns(rows, resident, k)...)
	} else if resident > 0 {
		it.tracker.Release(opSort, resident)
	}
	for _, c := range cursors {
		if err := c.advance(it.evs); err != nil {
			return err
		}
	}
	it.merge = &sortMerger{
		cursors: cursors, evs: it.evs, keys: it.keys,
		width: it.width, batchSize: it.batchSize,
	}
	return nil
}

// sortRuns cuts the in-memory rows into k contiguous runs and stable-sorts
// them on the worker pool, each holding one slot only while it sorts. The
// rows are the latest contiguous input range, so their runs merge after
// every spill run. Each run's cursor releases its own rows' reservation as
// they emit; the last run takes the remainder.
func (it *sortIter) sortRuns(rows []Row, resident int64, k int) []*sortRunCursor {
	cursors := make([]*sortRunCursor, k)
	var wg sync.WaitGroup
	for i := range cursors {
		c := &sortRunCursor{rows: rows[i*len(rows)/k : (i+1)*len(rows)/k], tracker: it.tracker}
		cursors[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			it.pool.acquire()
			defer it.pool.release()
			sortRowsStable(c.rows, it.evs, it.keys)
			if i < k-1 {
				for _, row := range c.rows {
					c.residual += rowMemBytes(row)
				}
			}
		}()
	}
	wg.Wait()
	last := resident
	for _, c := range cursors[:k-1] {
		last -= c.residual
	}
	cursors[k-1].residual = max(0, last)
	return cursors
}

func (it *sortIter) drainInput() error {
	for {
		b, err := it.in.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		n := b.Len()
		it.m.addProcessed(int64(n))
		// Reserve and buffer in bounded chunks, with no lock held during
		// Reserve: the pool may pick this very iterator as the spill
		// victim, shedding the rows buffered so far mid-batch.
		chunk := make([]Row, 0, n)
		var bytes int64
		flush := func() error {
			if len(chunk) == 0 {
				return nil
			}
			if err := it.tracker.Reserve(opSort, bytes); err != nil {
				return err
			}
			it.mu.Lock()
			it.buf = append(it.buf, chunk...)
			atomic.AddInt64(&it.resident, bytes)
			it.mu.Unlock()
			chunk, bytes = chunk[:0:0], 0
			return nil
		}
		for i := 0; i < n; i++ {
			row := make(Row, it.width)
			b.Gather(i, row)
			chunk = append(chunk, row)
			bytes += rowMemBytes(row)
			if bytes >= reserveChunkBytes {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		if err := flush(); err != nil {
			return err
		}
	}
}

// sortRowsStable stable-sorts rows in place by the given sort keys.
func sortRowsStable(rows []Row, evs []*evaluator, keys []logical.SortKey) {
	vals := make([][]types.Value, len(rows))
	for i, row := range rows {
		kv := make([]types.Value, len(evs))
		for k, ev := range evs {
			kv[k] = ev.eval(row)
		}
		vals[i] = kv
	}
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return compareKeys(vals[order[a]], vals[order[b]], keys) < 0
	})
	sorted := make([]Row, len(order))
	for i, o := range order {
		sorted[i] = rows[o]
	}
	copy(rows, sorted)
}

// compareKeys orders two key tuples under the sort direction: negative when
// a sorts before b.
func compareKeys(a, b []types.Value, keys []logical.SortKey) int {
	for k := range keys {
		c := compareForSort(a[k], b[k])
		if c == 0 {
			continue
		}
		if keys[k].Desc {
			return -c
		}
		return c
	}
	return 0
}

// sortRunCursor walks one sorted run — either a spill file or an in-memory
// run.
type sortRunCursor struct {
	// File-backed run.
	file  *storage.SpillFile
	rd    *storage.SpillReader
	width int
	// Memory-backed run; residual is its reservation, released on
	// exhaustion.
	rows     []Row
	idx      int
	residual int64
	tracker  *memctl.Tracker

	cur  Row
	key  []types.Value
	done bool
}

func (c *sortRunCursor) advance(evs []*evaluator) error {
	if c.rd != nil {
		row := make(Row, c.width)
		ok, err := c.rd.Next(row)
		if err != nil {
			return err
		}
		if !ok {
			c.done = true
			c.file.Close()
			return nil
		}
		c.cur = row
	} else {
		if c.idx >= len(c.rows) {
			c.done = true
			if c.residual > 0 {
				c.tracker.Release(opSort, c.residual)
				c.residual = 0
			}
			return nil
		}
		c.cur = c.rows[c.idx]
		c.idx++
		// Release the emitted row's share so downstream consumers can use
		// it; any rounding remainder goes when the cursor exhausts.
		if c.residual > 0 {
			rb := rowMemBytes(c.cur)
			if rb > c.residual {
				rb = c.residual
			}
			c.residual -= rb
			c.tracker.Release(opSort, rb)
		}
	}
	if c.key == nil {
		c.key = make([]types.Value, len(evs))
	}
	for k, ev := range evs {
		c.key[k] = ev.eval(c.cur)
	}
	return nil
}

// sortMerger k-way merges a sort's runs — spill files and in-memory runs
// alike, in input order. Ties pick the earliest run, which carries the
// earliest input rows — the stability tie-break.
type sortMerger struct {
	cursors   []*sortRunCursor
	evs       []*evaluator
	keys      []logical.SortKey
	width     int
	batchSize int
}

func (m *sortMerger) NextBatch() (*vec.Batch, error) {
	bl := vec.NewBuilder(m.width, m.batchSize)
	for !bl.Full() {
		var best *sortRunCursor
		for _, c := range m.cursors {
			if c.done {
				continue
			}
			if best == nil || compareKeys(c.key, best.key, m.keys) < 0 {
				best = c
			}
		}
		if best == nil {
			break
		}
		bl.Append(best.cur)
		if err := best.advance(m.evs); err != nil {
			return nil, err
		}
	}
	if bl.Len() == 0 {
		return nil, nil
	}
	return bl.Flush(), nil
}

// compareForSort orders NULLs after every value.
func compareForSort(a, b types.Value) int {
	switch {
	case a.Null && b.Null:
		return 0
	case a.Null:
		return 1
	case b.Null:
		return -1
	default:
		return types.Compare(a, b)
	}
}
