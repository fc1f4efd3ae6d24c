package serve

import "sync"

// cacheEntry is one stored result plus its eviction economics: cost is
// the simulated cycles a re-run would burn, seq breaks cost ties
// first-in-first-out so eviction stays deterministic.
type cacheEntry struct {
	res    JobResult
	cost   int64  // simulated cycles to recompute (min 1)
	tenant string // tenant whose job produced the entry
	seq    int64  // insertion sequence, tie-break for equal costs
}

// TenantCacheStats is one tenant's view of the shared cache: hits it
// enjoyed and evictions its inserts forced on others.
type TenantCacheStats struct {
	Hits      int64 `json:"hits"`
	Evictions int64 `json:"evictions"`
}

// Cache is the content-addressed result store: canonical spec hash →
// completed JobResult. Determinism makes every entry a perfect proxy
// for re-running the job, so a hit costs zero simulation. The store is
// shared across tenants — the hash excludes tenant, so one tenant's
// completed run is every tenant's cache hit.
//
// Capacity is bounded with cost-aware eviction: entries are charged by
// the simulated cycles their job burned, and past capacity the
// cheapest-to-recompute entry goes first (ties broken oldest-first).
// A flood of trivial jobs therefore cannot evict an expensive result —
// losing a million-cycle entry to make room for a thousand-cycle one
// trades a cache slot for a million cycles of rework. Persistence is
// the journal's done records, which repopulate the cache on recovery.
type Cache struct {
	mu      sync.Mutex
	m       map[uint64]*cacheEntry
	cap     int
	nextSeq int64
	hits    int64
	miss    int64
	evicted int64
	tenants map[string]*TenantCacheStats
}

// NewCache returns a cache bounded to capacity entries (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		m:       make(map[uint64]*cacheEntry),
		cap:     capacity,
		tenants: make(map[string]*TenantCacheStats),
	}
}

func (c *Cache) tenantLocked(name string) *TenantCacheStats {
	if name == "" {
		name = DefaultTenant
	}
	t, ok := c.tenants[name]
	if !ok {
		t = &TenantCacheStats{}
		c.tenants[name] = t
	}
	return t
}

// Get returns the cached result for key, counting the hit or miss
// against tenant (the reader, not the entry's producer).
func (c *Cache) Get(key uint64, tenant string) (JobResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if ok {
		c.hits++
		c.tenantLocked(tenant).Hits++
		return e.res, true
	}
	c.miss++
	return JobResult{}, false
}

// Put stores a completed result for tenant's job, evicting the
// cheapest-to-recompute entries past capacity. Evictions are charged to
// the inserting tenant — it is their insert that forced the churn. Only
// successful terminal results belong here: failures carry budgets and
// host state in their cause, which are not content.
func (c *Cache) Put(key uint64, tenant string, r JobResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cost := r.Cycles
	if cost < 1 {
		cost = 1
	}
	if e, ok := c.m[key]; ok {
		// Same key, same deterministic result: refresh in place.
		e.res = r
		e.cost = cost
		return
	}
	c.nextSeq++
	c.m[key] = &cacheEntry{res: r, cost: cost, tenant: tenant, seq: c.nextSeq}
	for len(c.m) > c.cap {
		var victim uint64
		var ve *cacheEntry
		for k, e := range c.m {
			if ve == nil || e.cost < ve.cost || (e.cost == ve.cost && e.seq < ve.seq) {
				victim, ve = k, e
			}
		}
		delete(c.m, victim)
		c.evicted++
		c.tenantLocked(tenant).Evictions++
	}
}

// Stats reports (hits, misses, evictions, entries).
func (c *Cache) Stats() (hits, misses, evictions int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.miss, c.evicted, len(c.m)
}

// TenantStats returns a copy of the per-tenant hit/eviction counters.
func (c *Cache) TenantStats() map[string]TenantCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]TenantCacheStats, len(c.tenants))
	for name, t := range c.tenants {
		out[name] = *t
	}
	return out
}
