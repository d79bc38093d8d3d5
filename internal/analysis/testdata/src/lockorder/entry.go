package lockorder

import "sync"

// Three edges out of cache.mu that the AB-BA shape does not exercise:
// one from a *Locked method's held-on-entry set, one from a
// synchronously invoked literal's, and one through an embedded mutex.
// None closes a cycle.
type cache struct {
	mu sync.Mutex
	db *DB
}

// flushLocked holds cache.mu on entry by the *Locked convention, so its
// stats bump is the edge cache.mu -> DB.mu.
func (c *cache) flushLocked() {
	c.db.mu.Lock()
	c.db.stats = 0
	c.db.mu.Unlock()
}

type journal struct {
	mu      sync.Mutex
	entries []int
}

func (c *cache) each(f func()) { f() }

// replay's callback runs during each, under cache.mu: the literal holds
// it on entry, and its journal lock is the edge cache.mu -> journal.mu.
func (c *cache) replay(j *journal) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.each(func() {
		j.mu.Lock()
		j.entries = nil
		j.mu.Unlock()
	})
}

// shard embeds its mutex. A lock through an index expression resolves
// the method selection's field path to the class shard.Mutex.
type shard struct {
	sync.Mutex
	n int
}

// bump holds cache.mu while it locks a shard: the edge
// cache.mu -> shard.Mutex.
func (c *cache) bump(shards []*shard) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range shards {
		shards[i].Lock()
		shards[i].n++
		shards[i].Unlock()
	}
}
