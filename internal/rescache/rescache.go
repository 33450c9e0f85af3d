// Package rescache is the semantic sub-plan result cache: the reuse tier
// above scan sharing (decoded chunks) and shared execution (concurrently
// fused plans). After an eligible sub-plan — a Scan→Filter→Project chain,
// optionally through one scalar or keyed GroupBy — completes, its
// materialized output is offered to a size-accounted store under a
// cost-weighted admission test (observed compute cost per result byte, the
// Cache-based MQO framework's density criterion), and later structurally
// equal sub-plans are served straight from cache, skipping scan, decode and
// evaluation entirely.
//
// Entries are keyed by a canonical plan fingerprint and validated against
// the scanned table's partition-set signature (ordered storage.Partition
// Seq numbers). A runtime Append to the scanned table changes the signature
// and invalidates the entry lazily on next lookup; appends to other tables
// leave it untouched. Capture is snapshot-validated: the signature is read
// before the sub-plan enumerates partitions and re-checked at offer time,
// so a mutation racing the computation can at worst produce a dead entry,
// never a stale hit.
//
// Capture is on second sight: a miss copies its result for an Offer only
// when the fingerprint has missed before (Tx.Capture). Most fresh-literal
// sub-plans never repeat, so a first miss runs uncaptured and pays nothing;
// a fingerprint whose last offer was too large or fell below the admission
// floor is not copied again until its table's partition set changes.
//
// Eviction is GreedyDual-Size: each entry carries priority H = clock +
// cost/bytes; eviction removes the minimum-H entry and advances the clock
// to its H, and hits refresh H against the current clock — cheap-to-
// recompute bulky results age out first, expensive dense results persist.
package rescache

import (
	"hash/maphash"
	"sync"

	"repro/internal/logical"
	"repro/internal/storage"
	"repro/internal/types"
)

// CostMetrics is the as-if-solo logical work a sub-plan performed to
// produce its result — the counters a cache hit must replay so served
// queries remain metric-identical to cold runs, and the numerator of the
// admission density test. Physical counters (decode work, pipelines,
// MaskPrefixHits) are not part of it: a hit does none of that work.
type CostMetrics struct {
	BytesScanned  int64
	RowsScanned   int64
	RowsProcessed int64
	HashRows      int64
}

// cost is the admission/eviction scalar: logical rows touched end to end.
func (c CostMetrics) cost() int64 { return c.RowsScanned + c.RowsProcessed }

// Entry is a cached, fully materialized sub-plan result.
type Entry struct {
	// Rows is the sub-plan output in emission order. Shared and immutable:
	// consumers must copy values out rather than mutate in place.
	Rows [][]types.Value
	// Cost is the logical work of the run that produced Rows.
	Cost CostMetrics
	// Bytes is the accounted size of Rows.
	Bytes int64
}

type cacheEntry struct {
	Entry
	sig string
	h   float64 // GreedyDual-Size priority: clock-at-touch + cost/bytes
}

// Cache is a size-bounded semantic result cache over one store.
type Cache struct {
	mu      sync.Mutex
	cap     int64
	bytes   int64
	clock   float64
	entries map[string]*cacheEntry
	// sigs holds, per table, the signature its latest admitted entry was
	// taken under. Entries of one partition set share that one string: a
	// signature is a few bytes per partition (kilobytes on a fact table),
	// is not counted in an entry's Bytes, and would otherwise be copied
	// into every entry, so cheap fresh-literal entries would hold far more
	// memory than the cache accounts for.
	sigs map[string]string
	// obsBytes/obsRows accumulate the scanned bytes and rows of every
	// offered sub-plan, whatever the admission verdict — the observed
	// decode cost profile the adaptive admission floor is derived from.
	obsBytes int64
	obsRows  int64
	// ghosts remembers the fingerprints that have missed, keyed by a hash
	// of the fingerprint. A collision only changes a capture decision,
	// never a served result.
	ghosts map[uint64]ghost
}

// ghost is what the cache remembers of a fingerprint it has seen miss.
// low marks one whose last offer was rejected for size or density; lowSig
// hashes the partition-set signature that rejection was under (a hash, not
// the signature: that is kilobytes on a fact table).
type ghost struct {
	low    bool
	lowSig uint64
}

// maxGhosts bounds the ghost set; it is cleared when full, which at worst
// defers a few repeating fingerprints' captures by one more miss.
const maxGhosts = 4096

var ghostSeed = maphash.MakeSeed()

// New creates a cache bounded to capBytes of accounted result bytes.
func New(capBytes int64) *Cache {
	return &Cache{
		cap:     capBytes,
		entries: make(map[string]*cacheEntry),
		sigs:    make(map[string]string),
		ghosts:  make(map[uint64]ghost),
	}
}

// For resolves the store's shared result cache, creating it bounded to
// capBytes on first use. The first caller fixes the capacity (the same
// first-caller-wins contract as the scan-share cache).
func For(st *storage.Store, capBytes int64) *Cache {
	return st.ResultCacheState(func() any { return New(capBytes) }).(*Cache)
}

// MaxEntryBytes is the largest result the cache will admit: a quarter of
// capacity, so no single entry can monopolize the budget. Captures should
// abandon materialization past this bound.
func (c *Cache) MaxEntryBytes() int64 { return c.cap / 4 }

// Stats reports the cache's current footprint.
func (c *Cache) Stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.bytes
}

// Tx is one sub-plan's cache interaction: Begin fingerprints the plan and
// snapshots the scanned table's partition-set signature (before the caller
// enumerates any partition — the ordering that makes capture race-safe),
// Lookup probes for a valid entry, Capture decides whether a miss is worth
// copying, and Offer proposes a computed result for admission.
type Tx struct {
	c     *Cache
	store *storage.Store
	fp    string
	table string
	sig   string
}

// Begin starts a cache transaction for op. It returns nil when op is not
// an eligible sub-plan shape or its table has no data.
func (c *Cache) Begin(op logical.Operator, store *storage.Store) *Tx {
	if c == nil || c.cap <= 0 {
		return nil
	}
	fp, table, ok := Fingerprint(op)
	if !ok {
		return nil
	}
	sig, ok := signature(store, table)
	if !ok {
		return nil
	}
	return &Tx{c: c, store: store, fp: fp, table: table, sig: sig}
}

// Table returns the base table the sub-plan scans.
func (tx *Tx) Table() string { return tx.table }

// Lookup returns the cached entry for this sub-plan if one exists and its
// partition-set signature still matches the live table. A signature
// mismatch deletes the stale entry (lazy invalidation) and reports a miss.
func (tx *Tx) Lookup() (*Entry, bool) {
	c := tx.c
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[tx.fp]
	if !ok {
		return nil, false
	}
	if e.sig != tx.sig {
		c.bytes -= e.Bytes
		delete(c.entries, tx.fp)
		return nil, false
	}
	// GreedyDual-Size touch: re-anchor the priority at the current clock.
	e.h = c.clock + density(e.Cost, e.Bytes)
	return &e.Entry, true
}

// Capture reports whether a missed sub-plan's result is worth copying for
// an Offer; ask it after Lookup misses and before building anything. A
// fingerprint's first miss is recorded and declined (the doorkeeper's
// "admit on second sight"). Later misses capture — a captured fingerprint
// stays recorded, so an entry an append invalidated recaptures on its
// first miss after the append — except while the fingerprint's last offer
// was rejected for size or density under the table's current partition
// set: the same rows at the same cost would be rejected again.
func (tx *Tx) Capture() bool {
	c := tx.c
	k := maphash.String(ghostSeed, tx.fp)
	c.mu.Lock()
	g, seen := c.ghosts[k]
	if !seen {
		c.noteGhostLocked(k, ghost{})
	}
	c.mu.Unlock()
	return seen && (!g.low || g.lowSig != maphash.String(ghostSeed, tx.sig))
}

// noteGhostLocked records g for fingerprint hash k, clearing a full set.
func (c *Cache) noteGhostLocked(k uint64, g ghost) {
	if _, ok := c.ghosts[k]; !ok && len(c.ghosts) >= maxGhosts {
		clear(c.ghosts)
	}
	c.ghosts[k] = g
}

// density is cost per byte, the admission criterion and the GDS priority
// increment.
func density(cost CostMetrics, bytes int64) float64 {
	if bytes <= 0 {
		bytes = 1
	}
	return float64(cost.cost()) / float64(bytes)
}

// admissionFloorLocked is the minimum cost-per-byte an entry must have
// earned to be worth caching. The break-even entry is a bulk identity scan:
// it touches one logical row per stored row and re-emits every byte, so its
// density is 1/(bytes per row). Rather than hard-coding the 8-byte rows
// that ratio once assumed, the floor divides by the workload's OBSERVED
// scanned-bytes-per-scanned-row (accumulated over every offer, admitted or
// not): wide-row workloads, whose identity scans are naturally low-density,
// lower the bar proportionally, and narrow-row workloads raise it. Clamped
// to [2, 256] bytes/row so a degenerate observation window cannot open the
// cache to everything or close it entirely; until both counters have real
// observations the floor is the historical 1/8.
func (c *Cache) admissionFloorLocked() float64 {
	bpr := int64(8)
	if c.obsRows > 0 && c.obsBytes > 0 {
		bpr = c.obsBytes / c.obsRows
	}
	if bpr < 2 {
		bpr = 2
	}
	if bpr > 256 {
		bpr = 256
	}
	return 1.0 / float64(bpr)
}

// AdmissionFloor reports the current adaptive admission density floor.
func (c *Cache) AdmissionFloor() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.admissionFloorLocked()
}

// Offer proposes a computed result for admission. rows must be immutable
// from here on. bytes is the caller-accounted result size. It returns
// whether the entry was admitted and how many entry bytes were evicted to
// make room; a rejection (cost density below the threshold, result too
// large, or the table's partition set changed while the result was being
// computed) evicts nothing. A size or density rejection is remembered
// against the current partition set, so Capture declines the fingerprint
// until its table changes. A capture abandoned past MaxEntryBytes offers
// nil rows with the byte count it reached.
func (tx *Tx) Offer(rows [][]types.Value, bytes int64, cost CostMetrics) (admitted bool, evictedBytes int64) {
	c := tx.c
	k := maphash.String(ghostSeed, tx.fp)
	c.mu.Lock()
	reject := bytes > c.MaxEntryBytes()
	if !reject {
		// Observe this sub-plan's decode cost BEFORE deciding, so the floor
		// reflects the workload being offered, not just what was admitted.
		c.obsBytes += cost.BytesScanned
		c.obsRows += cost.RowsScanned
		reject = density(cost, bytes) < c.admissionFloorLocked()
	}
	if reject {
		c.noteGhostLocked(k, ghost{low: true, lowSig: maphash.String(ghostSeed, tx.sig)})
	}
	c.mu.Unlock()
	if reject {
		return false, 0
	}
	// Snapshot validation: if the partition set changed since Begin, the
	// result may mix pre- and post-append partitions — never admit it.
	if sig, ok := signature(tx.store, tx.table); !ok || sig != tx.sig {
		return false, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[tx.fp]; ok {
		c.bytes -= old.Bytes
		delete(c.entries, tx.fp)
	}
	for c.bytes+bytes > c.cap && len(c.entries) > 0 {
		evictedBytes += c.evictMinLocked()
	}
	if c.bytes+bytes > c.cap {
		return false, evictedBytes
	}
	sig := tx.sig
	if shared := c.sigs[tx.table]; shared == sig {
		sig = shared
	} else {
		c.sigs[tx.table] = sig
	}
	c.entries[tx.fp] = &cacheEntry{
		Entry: Entry{Rows: rows, Cost: cost, Bytes: bytes},
		sig:   sig,
		h:     c.clock + density(cost, bytes),
	}
	c.bytes += bytes
	c.noteGhostLocked(k, ghost{})
	return true, evictedBytes
}

// evictMinLocked removes the minimum-priority entry and advances the GDS
// clock to its priority, returning the evicted bytes.
func (c *Cache) evictMinLocked() int64 {
	var victimKey string
	var victim *cacheEntry
	for k, e := range c.entries {
		if victim == nil || e.h < victim.h || (e.h == victim.h && k < victimKey) {
			victimKey, victim = k, e
		}
	}
	if victim == nil {
		return 0
	}
	if victim.h > c.clock {
		c.clock = victim.h
	}
	c.bytes -= victim.Bytes
	delete(c.entries, victimKey)
	return victim.Bytes
}

// RowBytes is the accounted size of one result row: a fixed per-value
// overhead (the in-memory Value footprint) plus string payloads. Callers
// accumulate it during capture so oversized results can be abandoned
// mid-stream.
func RowBytes(row []types.Value) int64 {
	n := int64(0)
	for _, v := range row {
		n += 24 + int64(len(v.S))
	}
	return n
}
