package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/vec"
)

// WorkerPool bounds concurrent CPU work across every parallel operator that
// draws from it: scan-leaf morsel decodes, hash-join build partitions and
// aggregation partitions all take slots from one pool instead of spawning
// independent pools per operator. A pool may be private to one query run
// (the default when Options.Workers is nil) or resident in an engine and
// shared by every query the engine executes — the multi-tenant service
// posture, where total CPU concurrency must stay bounded at the configured
// Parallelism no matter how many queries are in flight.
//
// Slots are acquired per unit of work (one morsel decode, one batch of
// build or aggregation input) and never held while blocked on a channel.
// Operators stacked in one plan — or whole queries stacked on one engine —
// therefore cannot deadlock the pool: every slot hold is a finite piece of
// CPU work, so some holder always finishes and releases.
type WorkerPool struct {
	slots  chan struct{}
	closed atomic.Bool
}

// NewWorkerPool creates a pool with n slots (n < 1 is clamped to 1).
func NewWorkerPool(n int) *WorkerPool {
	if n < 1 {
		n = 1
	}
	return &WorkerPool{slots: make(chan struct{}, n)}
}

// Size returns the slot count.
func (p *WorkerPool) Size() int { return cap(p.slots) }

func (p *WorkerPool) acquire() { p.slots <- struct{}{} }
func (p *WorkerPool) release() { <-p.slots }

// Close drains the pool: it blocks until every outstanding slot has been
// released, then marks the pool closed so the drain is observable
// (a second Close returns immediately). Callers must stop submitting work
// before closing — an engine does so by waiting out its in-flight queries —
// so Close is a verification barrier, not a cancellation mechanism: it
// returns an error only if the pool was somehow still busy beyond doubt
// (which the acquire discipline makes impossible for well-formed runs).
func (p *WorkerPool) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	// Claim every slot: this blocks until all in-flight holders release,
	// i.e. until the pool is fully drained. The slots are then returned so
	// a pool erroneously shared past Close fails loudly in tests (leak
	// detectors see the goroutines) rather than deadlocking silently.
	n := cap(p.slots)
	for i := 0; i < n; i++ {
		p.slots <- struct{}{}
	}
	for i := 0; i < n; i++ {
		<-p.slots
	}
	return nil
}

// String implements fmt.Stringer for debug output.
func (p *WorkerPool) String() string {
	return fmt.Sprintf("workerpool(%d slots, %d busy)", cap(p.slots), len(p.slots))
}

// shardBatch is one input batch as one shard of a hash-partitioned build
// sees it: rows are the logical indices of b's active rows whose key hash
// maps to the shard, ascending (nil for a single shard: every row); hashes
// holds the key hash of every active row of b, indexed by logical row; base
// is the global input index of b's first active row; aux is the drive's
// prep result for b. hashes and aux are shared read-only by every shard;
// a consumer must not keep hashes past its call, since a single shard's
// buffer is reused by the next batch.
type shardBatch[T any] struct {
	b      *vec.Batch
	rows   []int
	hashes []uint64
	base   int64
	aux    T
}

// count is the number of b's rows routed to the shard.
func (sb *shardBatch[T]) count() int {
	if sb.rows == nil {
		return sb.b.Len()
	}
	return len(sb.rows)
}

// row is the logical index in b of the shard's j-th row.
func (sb *shardBatch[T]) row(j int) int {
	if sb.rows == nil {
		return j
	}
	return sb.rows[j]
}

// drainShards is the one drive of the engine's hash-partitioned builds (the
// hash-join build and hash aggregation). It pulls in to exhaustion, charging
// RowsProcessed once per batch, and calls prep once per non-empty batch with
// one hash slot per active row; prep fills the hashes (which reach the
// consumers as shardBatch.hashes, so a row is hashed once) and returns what
// the shards need of the batch. Shard p consumes exactly the rows whose hash
// maps to p, in input order, so all rows of one key reach one shard in the
// order a serial loop would see them.
//
// A single shard runs inline on the caller's goroutine — no goroutine, no
// pool slot — and its hash slots are one buffer reused across batches. With
// n > 1 shards every batch is broadcast to n
// goroutines, each of which holds one pool slot while it works on one batch
// (never while waiting on its channel, so stacked parallel operators cannot
// starve each other into deadlock). shard(p) builds shard p's consumer on
// the goroutine that runs it, so one shard's scratch never shares cache
// lines with a sibling's. The first error from in or from any consumer ends
// the drain; every shard goroutine has exited when drainShards returns.
func drainShards[T any](in BatchIterator, n int, pool *WorkerPool, m *Metrics,
	prep func(b *vec.Batch, hashes []uint64) T, shard func(p int) func(shardBatch[T]) error) error {
	if n <= 1 {
		consume := shard(0)
		var base int64
		var hashes []uint64
		for {
			b, err := in.NextBatch()
			if b == nil || err != nil {
				return err
			}
			rows := b.Len()
			m.addProcessed(int64(rows))
			if rows == 0 {
				continue
			}
			if cap(hashes) < rows {
				hashes = make([]uint64, rows)
			}
			hashes = hashes[:rows]
			if err := consume(shardBatch[T]{b: b, hashes: hashes, base: base, aux: prep(b, hashes)}); err != nil {
				return err
			}
			base += int64(rows)
		}
	}
	var firstErr atomic.Pointer[error]
	fail := func(err error) { firstErr.CompareAndSwap(nil, &err) }
	chans := make([]chan shardBatch[T], n)
	var wg sync.WaitGroup
	for p := range chans {
		chans[p] = make(chan shardBatch[T], 2)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			consume := shard(p)
			var rows []int
			for sb := range chans[p] {
				// After an error, keep draining without working so the
				// reader never blocks.
				if firstErr.Load() != nil {
					continue
				}
				pool.acquire()
				rows = rows[:0]
				for i, h := range sb.hashes {
					if h%uint64(n) == uint64(p) {
						rows = append(rows, i)
					}
				}
				if len(rows) > 0 {
					sb.rows = rows
					if err := consume(sb); err != nil {
						fail(err)
					}
				}
				pool.release()
			}
		}(p)
	}
	var base int64
	for firstErr.Load() == nil {
		b, err := in.NextBatch()
		if err != nil {
			fail(err)
			break
		}
		if b == nil {
			break
		}
		rows := b.Len()
		m.addProcessed(int64(rows))
		if rows == 0 {
			continue
		}
		hashes := make([]uint64, rows)
		sb := shardBatch[T]{b: b, hashes: hashes, base: base, aux: prep(b, hashes)}
		base += int64(rows)
		for _, ch := range chans {
			ch <- sb
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		return *err
	}
	return nil
}
