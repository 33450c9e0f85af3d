package scanshare

import (
	"container/list"

	"repro/internal/types"
)

// valueOverhead approximates the in-memory footprint of one types.Value
// (struct fields plus slice bookkeeping); string payloads are added on top.
const valueOverhead = 48

// decodedSize estimates the resident size of a decoded chunk, which is what
// the cache bound accounts — decoded vectors are several times larger than
// their encoded form, and the bound must track what is actually held.
func decodedSize(vals []types.Value, kind types.Kind) int64 {
	size := int64(len(vals)) * valueOverhead
	if kind == types.KindString {
		for i := range vals {
			size += int64(len(vals[i].S))
		}
	}
	return size
}

// chunkCache is a size-accounted LRU over decoded column chunks. It is not
// internally locked; the Manager's mutex guards it.
type chunkCache struct {
	capacity int64
	used     int64
	entries  map[chunkKey]*list.Element
	order    *list.List // front = most recently used
}

type cacheEntry struct {
	key  chunkKey
	vals []types.Value
	size int64
}

func newChunkCache(capacity int64) *chunkCache {
	return &chunkCache{
		capacity: capacity,
		entries:  make(map[chunkKey]*list.Element),
		order:    list.New(),
	}
}

func (c *chunkCache) get(key chunkKey) ([]types.Value, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).vals, true
}

// put inserts a decoded chunk unless its key is already resident, evicting
// least-recently-used entries until the bound holds. Chunks larger than the
// whole cache are not admitted.
// Eviction only drops the cache's reference: queries already holding the
// vector keep it alive, so eviction is always safe mid-use.
func (c *chunkCache) put(key chunkKey, vals []types.Value, kind types.Kind) {
	if _, ok := c.entries[key]; ok {
		return // a concurrent miss decoded it too; the first insert wins
	}
	size := decodedSize(vals, kind)
	if size > c.capacity {
		return
	}
	for c.used+size > c.capacity {
		back := c.order.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.entries, e.key)
		c.used -= e.size
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, vals: vals, size: size})
	c.used += size
}
