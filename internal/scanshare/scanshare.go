// Package scanshare implements cross-query scan sharing: queries over the
// same store partitions share the physical work of decoding column chunks
// instead of each paying it independently (the multi-query reuse direction
// the fusion paper names in §I).
//
// The mechanism is one bounded, size-accounted LRU cache of decoded column
// chunks, keyed by (partition, column). Partitions are immutable after Load
// — reloading a table allocates fresh Partition values — so cache entries can
// never go stale; they simply stop being referenced and age out. A miss is
// decoded outside the cache lock and then inserted; when two queries miss the
// same cold chunk at once both decode it, and the first insert wins.
//
// Concurrent queries over the same table are folded into one scan by
// cross-query fusion (internal/xfuse) before they reach this layer, which is
// why there is no attach to another query's in-flight scan or decode: on the
// benchmark's workloads such attaches served at most 2.6 % of chunk
// requests, and without them the cache serves nearly all of those.
//
// Every query receives immutable decoded vectors (never partially decoded
// state), so a shared scan is value-identical to an unshared one; each query
// still windows the vectors into its own batches in its own partition order,
// so ordered delivery and LIMIT early-exit semantics are untouched.
package scanshare

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
	"repro/internal/types"
)

// DefaultCacheBytes is the decoded-chunk cache bound when the caller does
// not set one (estimated in-memory bytes, not encoded bytes).
const DefaultCacheBytes = 64 << 20

// Counters accumulates one query's scan-share activity. Fields are updated
// atomically; read them only after the query's workers have drained.
type Counters struct {
	// BytesDecoded is the encoded size of the chunks this query physically
	// decoded itself — the real CPU work, as opposed to the logical
	// BytesScanned the query is billed for.
	BytesDecoded int64
	// ChunksDecoded counts those chunks.
	ChunksDecoded int64
	// SharedHits is always zero: it counted chunks obtained by attaching to
	// another query's in-flight decode, which no longer exists. Kept because
	// the benchmark's report reads it.
	SharedHits int64
	// CacheHits counts chunks served from the decoded-chunk cache.
	CacheHits int64
	// StreamHits is always zero: it counted chunks received from another
	// query's morsel stream, which no longer exists. Kept because the
	// benchmark's report reads it.
	StreamHits int64
}

// AddDecoded charges one physically decoded chunk of the given encoded size.
func (c *Counters) AddDecoded(bytes int64) {
	atomic.AddInt64(&c.BytesDecoded, bytes)
	atomic.AddInt64(&c.ChunksDecoded, 1)
}

// chunkKey identifies one decoded column chunk. Partition pointers are
// unique per Load and per Append (the store only ever creates fresh
// Partition values and never mutates published ones), which is what makes
// the key invalidation-safe under runtime mutation: a replaced table's old
// chunks can never be returned for its new partitions, they just age out
// of the LRU.
type chunkKey struct {
	part *storage.Partition
	col  string
}

// Manager is the process-wide (per store) decoded-chunk cache. All methods
// are safe for concurrent use by many queries.
type Manager struct {
	mu    sync.Mutex
	cache *chunkCache
}

// NewManager creates a manager whose decoded-chunk cache is bounded at
// cacheBytes estimated in-memory bytes (<= 0 means DefaultCacheBytes).
func NewManager(cacheBytes int64) *Manager {
	if cacheBytes <= 0 {
		cacheBytes = DefaultCacheBytes
	}
	return &Manager{cache: newChunkCache(cacheBytes)}
}

// For resolves the store's shared manager, creating it with cacheBytes on
// first use (later callers share the first caller's cache bound).
func For(st *storage.Store, cacheBytes int64) *Manager {
	return st.SharedScanState(func() any { return NewManager(cacheBytes) }).(*Manager)
}

// CacheBytes reports the estimated bytes currently held by the chunk cache.
func (m *Manager) CacheBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cache.used
}

// CacheChunks reports the number of chunks currently cached.
func (m *Manager) CacheChunks() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cache.order.Len()
}

// Decode returns the decoded column vectors for p in cols order, served
// from the cache where resident and decoded (then cached) otherwise, and
// charges ctr with which of the two each chunk was.
func (m *Manager) Decode(p *storage.Partition, cols []string, ctr *Counters) ([][]types.Value, error) {
	out := make([][]types.Value, len(cols))
	for i, col := range cols {
		chunk := p.Chunk(col)
		if chunk == nil {
			return nil, fmt.Errorf("scanshare: partition has no column %q", col)
		}
		key := chunkKey{part: p, col: col}
		m.mu.Lock()
		vals, ok := m.cache.get(key)
		m.mu.Unlock()
		if ok {
			atomic.AddInt64(&ctr.CacheHits, 1)
		} else {
			// Pure CPU outside the lock, so concurrent misses on other chunks
			// decode in parallel.
			vals = chunk.DecodeAll(make([]types.Value, 0, chunk.Count))
			m.mu.Lock()
			m.cache.put(key, vals, chunk.Kind)
			m.mu.Unlock()
			ctr.AddDecoded(chunk.Bytes)
		}
		out[i] = vals
	}
	return out, nil
}
