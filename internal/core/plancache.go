package core

// PlanCache shares prepared statements across sessions: two sessions
// preparing the same SQL get Stmts backed by one planSet (the bound query
// and its plans), so the second session reuses every physical plan the
// first one compiled (per admission grant). The server front door keeps one
// cache per tenant — plan reuse must not leak placement or statistics
// across tenant boundaries, and a tenant's epoch-invalidated entries
// must not evict a neighbour's.
//
// Invalidation is the planSet's own: planFor compares the placement
// epochs its plans were built on against the tables' current epochs and
// drops stale plans before reuse, so a cached entry survives a table
// rewrite — it just replans on next use. The cache itself never goes
// stale; only its plans do.
//
// The simulation executes one event at a time, so the counters and map
// need no locking.
type PlanCache struct {
	entries map[string]*planSet // by SQL text
	hits    int64
	misses  int64
}

// NewPlanCache returns an empty cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{entries: map[string]*planSet{}}
}

// Stats reports how many PrepareCached calls reused an entry vs bound
// and planned from scratch.
func (c *PlanCache) Stats() (hits, misses int64) { return c.hits, c.misses }

// PrepareCached is Prepare through a shared cache: a hit skips parsing,
// binding, and — because the returned Stmt shares the entry's planSet —
// optimization for every grant already planned by any session using the
// same cache. The Stmt is still session-bound (its queries chain on this
// session's statement stream); only the immutable query and the plan
// cache are shared.
func (s *Session) PrepareCached(c *PlanCache, query string) (*Stmt, error) {
	if c == nil {
		return s.Prepare(query)
	}
	if err := s.open(); err != nil {
		return nil, err
	}
	if ps, ok := c.entries[query]; ok {
		c.hits++
		return &Stmt{sess: s, text: query, ps: ps}, nil
	}
	st, err := s.Prepare(query)
	if err != nil {
		return nil, err
	}
	c.misses++
	c.entries[query] = st.ps
	return st, nil
}
