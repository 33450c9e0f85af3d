package scanshare

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/types"
)

// newTestParts loads a partitioned three-column table and returns its
// partitions. Each partition gets rowsPerPart rows.
func newTestParts(t testing.TB, parts, rowsPerPart int) []*storage.Partition {
	t.Helper()
	cat := catalog.New()
	cat.MustAdd(&catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "a", Type: types.KindInt64},
			{Name: "b", Type: types.KindString},
			{Name: "p", Type: types.KindInt64},
		},
		PartitionColumn: "p",
	})
	st := storage.NewStore(cat)
	var rows [][]types.Value
	for p := 0; p < parts; p++ {
		for r := 0; r < rowsPerPart; r++ {
			rows = append(rows, []types.Value{
				types.Int(int64(p*1000 + r)),
				types.String(fmt.Sprintf("row-%d-%d", p, r)),
				types.Int(int64(p)),
			})
		}
	}
	if err := st.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	return st.Data("t").Partitions
}

var testCols = []string{"a", "b"}

// wantDecoded is the reference decode, bypassing the share manager.
func wantDecoded(t *testing.T, p *storage.Partition, cols []string) [][]types.Value {
	t.Helper()
	d, err := p.DecodeColumns(cols)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func decodeAll(t *testing.T, m *Manager, ctr *Counters, parts []*storage.Partition, cols []string) {
	t.Helper()
	for _, p := range parts {
		got, err := m.Decode(p, cols, ctr)
		if err != nil {
			t.Fatal(err)
		}
		if want := wantDecoded(t, p, cols); !reflect.DeepEqual(got, want) {
			t.Fatalf("shared decode differs from direct decode for partition %v", p.Key)
		}
	}
}

func chunkBytes(parts []*storage.Partition, cols []string) int64 {
	var total int64
	for _, p := range parts {
		for _, c := range cols {
			total += p.Chunk(c).Bytes
		}
	}
	return total
}

// TestAttachAfterCompleted: a scan arriving after another finished is
// served entirely from the chunk cache.
func TestAttachAfterCompleted(t *testing.T) {
	parts := newTestParts(t, 3, 15)
	mgr := NewManager(0)
	var ca, cb Counters

	decodeAll(t, mgr, &ca, parts, testCols)
	decodeAll(t, mgr, &cb, parts, testCols)
	if cb.BytesDecoded != 0 {
		t.Fatalf("late scan decoded %d bytes, want 0 (cache path)", cb.BytesDecoded)
	}
	if want := int64(len(parts) * len(testCols)); cb.CacheHits != want {
		t.Fatalf("CacheHits = %d, want %d", cb.CacheHits, want)
	}
}

// TestCacheEviction: under a tiny ScanCacheBytes bound the LRU must stay
// within budget, and evicted chunks are decoded again on the next request.
func TestCacheEviction(t *testing.T) {
	parts := newTestParts(t, 6, 10)
	intCols := []string{"a"}
	// Room for roughly two decoded 10-row int chunks (10*48=480 each).
	const capacity = 1000
	mgr := NewManager(capacity)
	var c Counters

	decodeAll(t, mgr, &c, parts, intCols)
	if mgr.CacheBytes() > capacity {
		t.Fatalf("cache holds %d bytes, bound is %d", mgr.CacheBytes(), capacity)
	}
	if got := mgr.CacheChunks(); got != 2 {
		t.Fatalf("cache holds %d chunks, want 2 under bound %d", got, capacity)
	}
	// parts[0] was evicted long ago: decoding it again is physical work.
	before := c.ChunksDecoded
	decodeAll(t, mgr, &c, parts[:1], intCols)
	if c.ChunksDecoded != before+1 {
		t.Fatalf("evicted chunk not re-decoded: ChunksDecoded %d -> %d", before, c.ChunksDecoded)
	}

	// A chunk larger than the whole cache is never admitted.
	tiny := NewManager(1)
	var ct Counters
	decodeAll(t, tiny, &ct, parts[:1], intCols)
	if tiny.CacheChunks() != 0 || tiny.CacheBytes() != 0 {
		t.Fatalf("oversized chunk admitted: %d chunks, %d bytes", tiny.CacheChunks(), tiny.CacheBytes())
	}
}

// TestColumnSubsetAttach: a scan needing a subset of an earlier scan's
// columns decodes nothing; one needing more decodes only the extra column.
func TestColumnSubsetAttach(t *testing.T) {
	parts := newTestParts(t, 3, 10)
	mgr := NewManager(0)
	var ca, cb, cc Counters

	decodeAll(t, mgr, &ca, parts, []string{"a", "b"})
	decodeAll(t, mgr, &cb, parts, []string{"b"})
	if cb.ChunksDecoded != 0 {
		t.Fatalf("column-subset scan decoded %d chunks, want 0", cb.ChunksDecoded)
	}
	decodeAll(t, mgr, &cc, parts, []string{"a", "b", "p"})
	if cc.CacheHits != int64(len(parts)*2) {
		t.Fatalf("wide scan CacheHits = %d, want %d", cc.CacheHits, len(parts)*2)
	}
	if want := chunkBytes(parts, []string{"p"}); cc.BytesDecoded != want {
		t.Fatalf("wide scan BytesDecoded = %d, want %d (only the extra column)", cc.BytesDecoded, want)
	}
}

// TestMissingColumn: the error path mirrors storage.DecodeColumns.
func TestMissingColumn(t *testing.T) {
	parts := newTestParts(t, 1, 5)
	mgr := NewManager(0)
	var c Counters
	if _, err := mgr.Decode(parts[0], []string{"nope"}, &c); err == nil {
		t.Fatal("expected error for unknown column")
	}
}

// TestConcurrentIdenticalScans: N concurrent scans over the same partitions
// each get the direct-decode values, every chunk request is served exactly
// once, and each chunk is decoded at least once and at most once per scan
// (two scans missing the same cold chunk both decode it). Run under -race.
func TestConcurrentIdenticalScans(t *testing.T) {
	parts := newTestParts(t, 8, 50)
	want := make([][][]types.Value, len(parts))
	for i, p := range parts {
		want[i] = wantDecoded(t, p, testCols)
	}
	mgr := NewManager(0)
	const n = 8
	ctrs := make([]Counters, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pi, p := range parts {
				got, err := mgr.Decode(p, testCols, &ctrs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[pi]) {
					t.Errorf("scan %d: shared decode differs from direct decode for partition %v", i, p.Key)
					return
				}
			}
		}()
	}
	wg.Wait()
	chunks := int64(len(parts) * len(testCols))
	var decoded, served int64
	for i := range ctrs {
		decoded += ctrs[i].ChunksDecoded
		served += ctrs[i].ChunksDecoded + ctrs[i].CacheHits
	}
	if decoded < chunks || decoded > n*chunks {
		t.Fatalf("chunks decoded across scans = %d, want between %d and %d", decoded, chunks, n*chunks)
	}
	if served != n*chunks {
		t.Fatalf("chunks served = %d, want %d", served, n*chunks)
	}
	var after Counters
	decodeAll(t, mgr, &after, parts, testCols)
	if after.ChunksDecoded != 0 {
		t.Fatalf("scan after the concurrent ones decoded %d chunks, want 0", after.ChunksDecoded)
	}
}
