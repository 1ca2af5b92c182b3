package runner

import "sync"

// call is one in-flight build; waiters block on done.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache is a build-once result cache with singleflight semantics: the first
// Do for a key runs the build, concurrent Dos for the same key block on the
// in-flight build's wait channel instead of re-running it, and later Dos
// return the cached value. Failed builds are not cached — the error is
// delivered to every waiter of that flight and the next Do retries.
//
// The zero value is ready to use. It replaces the global mutex that used to
// serialize whole-testnet censuses: independent keys now build concurrently.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	built    map[K]V
	inflight map[K]*call[V]
}

// Do returns the cached value for key, waiting on or starting a build as
// needed. build runs outside the cache lock, so builds for distinct keys
// proceed in parallel.
func (c *Cache[K, V]) Do(key K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	if v, ok := c.built[key]; ok {
		c.mu.Unlock()
		return v, nil
	}
	if cl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-cl.done
		return cl.val, cl.err
	}
	if c.inflight == nil {
		c.inflight = make(map[K]*call[V])
		c.built = make(map[K]V)
	}
	cl := &call[V]{done: make(chan struct{})}
	c.inflight[key] = cl
	c.mu.Unlock()

	cl.val, cl.err = build()

	c.mu.Lock()
	if cl.err == nil {
		c.built[key] = cl.val
	}
	delete(c.inflight, key)
	c.mu.Unlock()
	close(cl.done)
	return cl.val, cl.err
}

// Prewarm starts background builds for every key that is neither cached nor
// in flight, using the supplied per-key build function. It returns
// immediately; a later Do for the same key blocks on the in-flight build.
// With a pool width of 1 it is a no-op, keeping -parallel 1 fully serial.
func (c *Cache[K, V]) Prewarm(keys []K, build func(K) (V, error)) {
	if Parallelism() <= 1 {
		return
	}
	for _, key := range keys {
		k := key
		go func() {
			_, _ = c.Do(k, func() (V, error) { return build(k) })
		}()
	}
}
