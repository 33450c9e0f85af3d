package exec

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/storage"
	"repro/internal/types"
)

// ShapeCache memoizes the expensive half of AnalyzeChain — the
// ScanPartitions replay over partition metadata that computes a chain's
// as-if-solo Storage charge and pruned cardinality — keyed by a plan
// fingerprint under the store's data epoch. Fused groups call AnalyzeChain
// once per member per run, and every member of a duplicate-query batch (the
// paper's concurrent-dashboards motivation) shares one fingerprint, so the
// partition walk happens once per distinct shape per data version instead
// of once per member per run.
//
// The fingerprint must be stable across independently bound plans, whose
// column IDs are fresh per query. It therefore renders only bind-stable
// parts: the table name, the scanned column names, and the peeled prune
// predicate with its partition-column reference rewritten to one fixed
// canonical column before expr.Canonical normalization. Two plans with
// equal fingerprints scan the same table and columns under structurally
// identical pruning, so their Storage charge and pruned row count are
// equal by construction. Stage counts are NOT cached — they are cheap to
// recompute and belong to the individual plan.
//
// Only the live epoch's entries are kept: an entry under an older epoch can
// never hit again, so the map is dropped when the epoch moves, and also
// when it reaches shapeCacheCap (fresh prune literals within one epoch mint
// fresh fingerprints), which bounds the cache over a server's lifetime.
type ShapeCache struct {
	mu      sync.Mutex
	epoch   int64
	entries map[string]shapeEntry
	hits    atomic.Int64
	misses  atomic.Int64
}

// shapeCacheCap bounds the live epoch's entries.
const shapeCacheCap = 1024

type shapeEntry struct {
	storage    storage.Metrics
	prunedRows int64
}

// NewShapeCache creates an empty cache.
func NewShapeCache() *ShapeCache {
	return &ShapeCache{entries: make(map[string]shapeEntry)}
}

// Hits and Misses report cache effectiveness (for tests and benchmarks).
func (c *ShapeCache) Hits() int64   { return c.hits.Load() }
func (c *ShapeCache) Misses() int64 { return c.misses.Load() }

// shapeFPCol is the canonical stand-in for a chain's partition column in
// fingerprints: remapping every plan's (fresh-ID) partition column onto it
// makes structurally identical prune predicates render identically.
var shapeFPCol = expr.NewColumn("$shapefp", types.KindUnknown)

// chainFingerprint renders the bind-stable identity of a chain's pruning
// work. ok=false means the chain cannot be fingerprinted (never happens for
// compileChain output, but kept as a guard).
func chainFingerprint(cs *chainSpec) (string, bool) {
	var b strings.Builder
	b.WriteString(cs.scan.Table.Name)
	b.WriteByte('|')
	b.WriteString(strings.Join(cs.scan.ColNames, ","))
	b.WriteByte('|')
	if cs.pruneCond != nil {
		if cs.pruneCol == nil {
			return "", false
		}
		m := expr.Mapping{cs.pruneCol.ID: shapeFPCol}
		b.WriteString(expr.Canonical(m.Apply(cs.pruneCond)).String())
	}
	return b.String(), true
}

// AnalyzeChain is exec.AnalyzeChain through the cache: recognition and
// stage layout are computed fresh (cheap, plan-specific), while the
// partition-metadata replay is served from cache when an equal-fingerprint
// chain was analyzed against the same store epoch.
func (c *ShapeCache) AnalyzeChain(root logical.Operator, store *storage.Store) (*ChainShape, bool, error) {
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
	// The epoch is read once, before the partition walk: a concurrent
	// mutation (Load or Append) can at worst leave this result under the
	// pre-mutation epoch (not stored), never stale data under the live
	// epoch.
	fp, fpOK := chainFingerprint(cs)
	epoch := store.Epoch()
	if fpOK {
		c.mu.Lock()
		e, hit := c.entries[fp]
		hit = hit && c.epoch == epoch
		c.mu.Unlock()
		if hit {
			c.hits.Add(1)
			sh.Storage = e.storage
			sh.PrunedRows = e.prunedRows
			return sh, true, nil
		}
	}
	parts, err := store.ScanPartitions(cs.scan.Table.Name, cs.scan.ColNames, cs.prune, &sh.Storage)
	if err != nil {
		return nil, true, err
	}
	for _, p := range parts {
		sh.PrunedRows += int64(p.NumRows)
	}
	c.misses.Add(1)
	if fpOK {
		c.mu.Lock()
		if epoch >= c.epoch {
			if epoch > c.epoch || len(c.entries) >= shapeCacheCap {
				c.epoch, c.entries = epoch, make(map[string]shapeEntry)
			}
			c.entries[fp] = shapeEntry{storage: sh.Storage, prunedRows: sh.PrunedRows}
		}
		c.mu.Unlock()
	}
	return sh, true, nil
}
