package engine

import (
	"os"
	"runtime"
	"time"

	"repro/internal/exec"
	"repro/internal/scanshare"
)

// Config controls engine behaviour.
type Config struct {
	// EnableFusion turns on the paper's computation-reuse rules
	// (GroupByJoinToWindow, JoinOnKeys, UnionAllOnJoin, UnionAllFusion and
	// the supporting distinct rules). Default false = baseline engine.
	EnableFusion bool
	// EnableSpooling turns on the paper's §I comparator: duplicated
	// subtrees are materialized once and replayed per consumer instead of
	// (or, when combined with EnableFusion, after) fusion. The spool pass
	// runs on the optimized plan, so with both flags set, spooling handles
	// whatever duplication the fusion rules could not remove — the paper's
	// stated roadmap.
	EnableSpooling bool
	// Parallelism is the number of workers shared by every parallel
	// execution stage: morsel-parallel scan leaves, partition-wise parallel
	// aggregation, and parallel hash-join builds all draw slots from one
	// bounded pool of this size. <= 0 means GOMAXPROCS; 1 forces fully
	// serial execution. Results are bit-for-bit identical at every setting:
	// morsels are delivered in partition order, and partitioned operators
	// merge their per-worker state back in the serial engine's order.
	Parallelism int
	// BatchSize is the number of rows per execution batch. <= 0 means the
	// default (1024); 1 degenerates to row-at-a-time execution, the
	// reference shape every differential test compares against.
	BatchSize int
	// ShareScans opts this engine's queries into cross-query scan sharing:
	// column chunks are decoded through a bounded decoded-chunk cache owned
	// by the store, so a chunk any earlier or concurrent query over the same
	// partitions already decoded is not decoded again. Results and
	// Metrics.Storage.BytesScanned are identical either way — only the
	// physical work reported by Metrics.Share.BytesDecoded changes. Sharing
	// spans every engine over the same store (see OpenWithStore), whatever
	// their other settings.
	ShareScans bool
	// ScanCacheBytes bounds the shared decoded-chunk cache in estimated
	// resident bytes; <= 0 means the 64 MiB default. The cache belongs to
	// the store, so the first sharing query to run against a store fixes
	// its size.
	ScanCacheBytes int64
	// MemoryLimitBytes bounds the tracked resident memory of all queries
	// running on this engine instance combined: hash-join build tables,
	// aggregation group state, sort buffers, window/spool materializations.
	// Under pressure the pool spills aggregation and sort state to SpillDir
	// (results stay bit-for-bit identical); state that cannot spill fails
	// the query with memctl.ErrMemoryExceeded. <= 0 means unlimited —
	// reservations are tracked for Metrics but never fail and never spill.
	MemoryLimitBytes int64
	// SpillDir is where spill files are written under memory pressure.
	// Empty means os.TempDir(). Files are temp-named, crash-safe to leave
	// behind, and removed when the owning query finishes or is abandoned.
	SpillDir string
	// ShareExec opts this engine's queries into cross-query shared
	// execution (internal/xfuse): concurrently arriving queries with
	// fusable plan shapes are held in an AdmissionWindow-long batch, fused
	// into one plan via the paper's Fuse primitive, executed once, and
	// demultiplexed back to each client through compensating predicates.
	// Every client's rows and logical metrics (bytes scanned, rows
	// processed) are byte-identical to a solo run; Metrics.SharedExec tells
	// the physical story. Shapes that cannot be fused (or attributed
	// exactly) bypass the window and run solo, so coverage never narrows.
	ShareExec bool
	// AdmissionWindow is how long the first eligible query of a batch waits
	// for companions before the batch executes. <= 0 means 2ms. Only
	// meaningful with ShareExec.
	AdmissionWindow time.Duration
	// MaxFusedQueries seals a batch early once this many queries joined.
	// <= 0 means 8. Only meaningful with ShareExec.
	MaxFusedQueries int
	// ResultCacheBytes, when > 0, opts this engine's queries into the
	// store's semantic sub-plan result cache (internal/rescache): eligible
	// completed sub-plans (Scan→Filter→Project chains, scalar or keyed
	// aggregations over them) are materialized into a cache bounded to this
	// many result bytes under cost-weighted admission, and structurally
	// equal sub-plans of later queries — including members of fused
	// ShareExec batches — are served from cache. Rows and logical metrics
	// (bytes scanned, rows processed) are byte-identical to cold runs;
	// Metrics.ResultCache tells the physical story. Entries are invalidated
	// by Load/Append at partition-set granularity, so appends to other
	// tables leave them valid. The cache belongs to the store, so the first
	// caching query against a store fixes its size. 0 disables the cache
	// (the default; no normalization needed).
	ResultCacheBytes int64

	// naiveMasks, pullExec and noSkip select the reference twin of the
	// mask-family kernel (per-expression value vectors), of push-based
	// pipeline fusion (pull iterators, serial sinks) and of data skipping
	// (decode every surviving partition). Rows and logical metrics are
	// identical either way; the twins exist so the differential matrix in
	// this package can compare against them, which is why only in-package
	// tests can set them.
	naiveMasks, pullExec, noSkip bool
}

// normalize resolves every defaulted Config field to its effective value.
// It is the single place engine-level defaults are decided; Open applies it
// once so the rest of the engine (and exec.Options) sees only concrete
// settings.
func (c Config) normalize() Config {
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.BatchSize <= 0 {
		c.BatchSize = exec.DefaultBatchSize
	}
	if c.ScanCacheBytes <= 0 {
		c.ScanCacheBytes = scanshare.DefaultCacheBytes
	}
	if c.MemoryLimitBytes < 0 {
		c.MemoryLimitBytes = 0 // unlimited
	}
	if c.SpillDir == "" {
		c.SpillDir = os.TempDir()
	}
	if c.AdmissionWindow <= 0 {
		c.AdmissionWindow = 2 * time.Millisecond
	}
	if c.MaxFusedQueries <= 0 {
		c.MaxFusedQueries = 8
	}
	return c
}
