// Package pagecache simulates the OS page cache that DNN frameworks rely on
// for caching raw training data (§3.3.1). It is item-granular (a data item is
// fetched and evicted as a unit) and byte-budgeted.
//
// Three replacement policies are provided:
//
//   - LRU: classic least-recently-used; pathological for cyclic scans.
//   - TwoList: an approximation of Linux's active/inactive list design
//     (promotion on second touch while resident in the inactive list,
//     demotion when the active list exceeds its share). This is the default
//     "Linux" model used in experiments; under per-epoch permutation access
//     it thrashes — delivering well below capacity-ratio hits — which is the
//     paper's key finding (Fig 3, Table 6).
//   - Random: random replacement, included for ablations.
//
// Storage layout: entries live by value in a slab ([]entry) threaded into
// intrusive doubly-linked recency lists via int32 indices, with evicted
// slots recycled through a free list; residency is a dense []int32 indexed
// by ItemID (IDs are dense small integers). Steady-state Lookup and
// Insert-with-eviction therefore allocate nothing — no map operations, no
// container/list element boxes, no per-entry heap objects. Eviction order,
// rng consumption, and every statistic are identical to the original
// map+container/list implementation (pinned by TestSlabMatchesReference).
//
// A Cache is NOT safe for concurrent use; each simulation owns its caches
// and drives them from the engine goroutine.
package pagecache

import (
	"math/rand"

	"datastall/internal/dataset"
)

// Policy selects a replacement policy.
type Policy int

// Replacement policies.
const (
	LRU Policy = iota
	TwoList
	Random
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case TwoList:
		return "twolist"
	case Random:
		return "random"
	}
	return "unknown"
}

// nilIdx marks an empty link / absent entry.
const nilIdx = int32(-1)

// entry is one resident item, stored by value in the slab. prev/next thread
// it into the inactive or active list.
type entry struct {
	id         dataset.ItemID
	bytes      float64
	active     bool
	prev, next int32
}

// clist is an intrusive doubly-linked list over slab indices.
// front = most recent.
type clist struct {
	head, tail int32
	n          int
}

// Cache is a simulated page cache.
type Cache struct {
	policy   Policy
	capBytes float64

	slab []entry
	free []int32 // recycled slab slots
	idx  []int32 // ItemID -> slab index, nilIdx = absent; grown on demand

	inactive clist
	active   clist

	usedBytes   float64
	activeBytes float64
	// activeRatio is the maximum fraction of capacity the active list may
	// occupy before demotion (TwoList only).
	activeRatio float64

	// refaultProb is the probability a freshly inserted item is activated
	// directly onto the active list (TwoList only). It models Linux's
	// workingset refault detection plus readahead batch activation: under
	// heavy thrashing, a slice of the incoming stream gets protected,
	// which is why the authors measure nonzero retention even for
	// sequential scans (Table 3, Table 6).
	refaultProb float64

	rng *rand.Rand
	// randKeys mirrors resident items for O(1) random eviction (Random
	// only); positions are recovered through the dense index on eviction.
	randKeys []dataset.ItemID

	hits, misses int64
	evictions    int64
	count        int
}

// New returns a cache with the given byte capacity and policy.
func New(policy Policy, capBytes float64, seed int64) *Cache {
	return &Cache{
		policy:      policy,
		capBytes:    capBytes,
		inactive:    clist{head: nilIdx, tail: nilIdx},
		active:      clist{head: nilIdx, tail: nilIdx},
		activeRatio: 0.62,
		refaultProb: 0.30,
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// SetActiveRatio overrides the TwoList active-list share (for ablations).
func (c *Cache) SetActiveRatio(r float64) { c.activeRatio = r }

// SetRefaultProb sets the TwoList refault/readahead activation probability
// (0 disables it, giving the classic strict two-list behaviour).
func (c *Cache) SetRefaultProb(p float64) { c.refaultProb = p }

// CapBytes returns the configured capacity.
func (c *Cache) CapBytes() float64 { return c.capBytes }

// UsedBytes returns the bytes currently cached.
func (c *Cache) UsedBytes() float64 { return c.usedBytes }

// Hits returns the number of lookup hits so far.
func (c *Cache) Hits() int64 { return c.hits }

// Misses returns the number of lookup misses so far.
func (c *Cache) Misses() int64 { return c.misses }

// Evictions returns the number of items evicted so far.
func (c *Cache) Evictions() int64 { return c.evictions }

// ResetStats clears hit/miss/eviction counters (e.g. after warmup epoch).
func (c *Cache) ResetStats() { c.hits, c.misses, c.evictions = 0, 0, 0 }

// Len returns the number of cached items.
func (c *Cache) Len() int { return c.count }

// lookupIdx returns id's slab index, or nilIdx if absent.
func (c *Cache) lookupIdx(id dataset.ItemID) int32 {
	if i := int(id); uint(i) < uint(len(c.idx)) {
		return c.idx[i]
	}
	return nilIdx
}

// Contains reports whether id is resident without updating recency.
func (c *Cache) Contains(id dataset.ItemID) bool {
	return c.lookupIdx(id) != nilIdx
}

// pushFront links slab entry e at the front of l.
func (c *Cache) pushFront(l *clist, e int32) {
	en := &c.slab[e]
	en.prev, en.next = nilIdx, l.head
	if l.head != nilIdx {
		c.slab[l.head].prev = e
	} else {
		l.tail = e
	}
	l.head = e
	l.n++
}

// unlink removes slab entry e from l.
func (c *Cache) unlink(l *clist, e int32) {
	en := &c.slab[e]
	if en.prev != nilIdx {
		c.slab[en.prev].next = en.next
	} else {
		l.head = en.next
	}
	if en.next != nilIdx {
		c.slab[en.next].prev = en.prev
	} else {
		l.tail = en.prev
	}
	en.prev, en.next = nilIdx, nilIdx
	l.n--
}

// moveToFront makes e the most recent entry of l.
func (c *Cache) moveToFront(l *clist, e int32) {
	if l.head == e {
		return
	}
	c.unlink(l, e)
	c.pushFront(l, e)
}

// Lookup reports whether id is cached, updating recency/promotion state and
// hit/miss counters.
func (c *Cache) Lookup(id dataset.ItemID) bool {
	e := c.lookupIdx(id)
	if e == nilIdx {
		c.misses++
		return false
	}
	c.hits++
	switch c.policy {
	case LRU:
		c.moveToFront(&c.inactive, e)
	case TwoList:
		if c.slab[e].active {
			c.moveToFront(&c.active, e)
		} else {
			// Second touch while resident on the inactive list:
			// promote to the active list (Linux mark_page_accessed).
			c.unlink(&c.inactive, e)
			c.pushFront(&c.active, e)
			c.slab[e].active = true
			c.activeBytes += c.slab[e].bytes
			c.rebalance()
		}
	case Random:
		// No recency state.
	}
	return true
}

// alloc takes a slab slot (recycling freed ones) and initialises it.
func (c *Cache) alloc(id dataset.ItemID, bytes float64) int32 {
	var e int32
	if n := len(c.free); n > 0 {
		e = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		c.slab = append(c.slab, entry{})
		e = int32(len(c.slab) - 1)
	}
	c.slab[e] = entry{id: id, bytes: bytes, prev: nilIdx, next: nilIdx}
	return e
}

// setIdx records id -> e, growing the dense index on demand.
func (c *Cache) setIdx(id dataset.ItemID, e int32) {
	i := int(id)
	if i >= len(c.idx) {
		if i < cap(c.idx) {
			old := len(c.idx)
			c.idx = c.idx[:i+1]
			for k := old; k <= i; k++ {
				c.idx[k] = nilIdx
			}
		} else {
			newCap := 2 * cap(c.idx)
			if newCap < i+1 {
				newCap = i + 1
			}
			if newCap < 64 {
				newCap = 64
			}
			ni := make([]int32, i+1, newCap)
			copy(ni, c.idx)
			for k := len(c.idx); k <= i; k++ {
				ni[k] = nilIdx
			}
			c.idx = ni
		}
	}
	c.idx[i] = e
}

// Insert caches id (typically after a miss fetched it from storage), evicting
// as needed to respect capacity. Items larger than the cache are not cached.
func (c *Cache) Insert(id dataset.ItemID, bytes float64) {
	if id < 0 {
		return
	}
	if c.lookupIdx(id) != nilIdx {
		return
	}
	if bytes > c.capBytes {
		return
	}
	for c.usedBytes+bytes > c.capBytes {
		if !c.evictOne() {
			return
		}
	}
	e := c.alloc(id, bytes)
	switch c.policy {
	case Random:
		c.randKeys = append(c.randKeys, id)
	case TwoList:
		if c.refaultProb > 0 && c.rng.Float64() < c.refaultProb {
			c.pushFront(&c.active, e)
			c.slab[e].active = true
			c.activeBytes += bytes
			c.setIdx(id, e)
			c.count++
			c.usedBytes += bytes
			c.rebalance()
			return
		}
		c.pushFront(&c.inactive, e)
	default:
		c.pushFront(&c.inactive, e)
	}
	c.setIdx(id, e)
	c.count++
	c.usedBytes += bytes
}

// rebalance demotes active-list tails while the active list exceeds its
// share of capacity (TwoList).
func (c *Cache) rebalance() {
	for c.activeBytes > c.activeRatio*c.capBytes && c.active.n > 0 {
		e := c.active.tail
		c.unlink(&c.active, e)
		c.pushFront(&c.inactive, e)
		c.slab[e].active = false
		c.activeBytes -= c.slab[e].bytes
	}
}

// release evicts slab entry e: clears the index, recycles the slot, and
// books the eviction.
func (c *Cache) release(e int32) {
	en := &c.slab[e]
	c.idx[en.id] = nilIdx
	c.usedBytes -= en.bytes
	c.count--
	c.evictions++
	c.free = append(c.free, e)
}

// evictOne removes one item according to the policy; returns false if empty.
func (c *Cache) evictOne() bool {
	switch c.policy {
	case Random:
		if len(c.randKeys) == 0 {
			return false
		}
		i := c.rng.Intn(len(c.randKeys))
		id := c.randKeys[i]
		e := c.idx[id]
		last := len(c.randKeys) - 1
		c.randKeys[i] = c.randKeys[last]
		c.randKeys = c.randKeys[:last]
		c.release(e)
		return true
	case TwoList:
		// Evict from the inactive tail; refill inactive from active if
		// it drained (Linux shrinks the active list under pressure).
		if c.inactive.n == 0 {
			c.rebalanceForce()
		}
		fallthrough
	default:
		e := c.inactive.tail
		if e == nilIdx {
			e = c.active.tail
			if e == nilIdx {
				return false
			}
			c.unlink(&c.active, e)
			c.activeBytes -= c.slab[e].bytes
			c.release(e)
			return true
		}
		c.unlink(&c.inactive, e)
		c.release(e)
		return true
	}
}

// rebalanceForce demotes one active tail into inactive (pressure path).
func (c *Cache) rebalanceForce() {
	e := c.active.tail
	if e == nilIdx {
		return
	}
	c.unlink(&c.active, e)
	c.pushFront(&c.inactive, e)
	c.slab[e].active = false
	c.activeBytes -= c.slab[e].bytes
}

// HitRate returns hits/(hits+misses), or 0 with no lookups.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
