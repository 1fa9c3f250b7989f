// Package compilecache is a concurrency-safe, content-addressed cache for
// the Figure-4 compile pipeline. It exploits the two redundancies of the
// evaluation sweeps (experiments.RunSweep compiles every program at every
// (bank, method) point, and the workload suites repeat kernels heavily):
//
//   - Full-result dedup: a compile keyed by (function fingerprint,
//     full-options digest) that already ran returns its immutable result
//     without recompiling. Repeated kernels across programs hit this layer.
//   - Phase-prefix memoization: the method-independent prefix of the
//     pipeline (coalescing → SDG splitting → scheduling) is keyed only by
//     the options that reach those phases, so a sweep over methods and bank
//     counts runs the prefix once per function and clones the post-sched
//     snapshot for every other point.
//   - Allocation dedup: for bank-oblivious methods (non, and brc's
//     allocation phase, which is non's) the register allocation never reads
//     the bank count, so the expensive allocation is keyed without it
//     (core.Options.AllocDigest) and shared across every bank point of a
//     sweep; only the cheap per-bank conflict analysis reruns.
//
// The cache stores opaque values (internal/core owns the concrete snapshot
// and result types; storing them here directly would create an import
// cycle). Lookups have singleflight semantics: concurrent requests for the
// same key run the compute function once and share the outcome, so a
// parallel sweep does not burn workers producing identical entries.
//
// A cache created by New retains entries forever — the right policy for a
// CLI sweep, where the working set is the sweep itself and byte-identity
// across cache-on/cache-off runs is pinned by tests. A cache created by
// NewLimited additionally enforces a byte cap with LRU eviction across both
// layers, the policy a long-running server needs: BytesRetained never
// exceeds the cap after a lookup completes, and evicted keys simply
// recompute (the pipeline is deterministic, so recomputed entries are
// byte-identical to the evicted ones).
package compilecache

import (
	"context"
	"errors"
	"sync"

	"prescount/internal/ir"
)

// Key addresses one cache entry: the content fingerprint of the input
// function plus a digest of the options that can influence the cached
// computation (core.Options.FullDigest for results, PrefixDigest for
// prefix snapshots).
type Key struct {
	// Fingerprint is ir.Func.Fingerprint() of the input function.
	Fingerprint ir.Fingerprint
	// Digest is the phase-relevant options digest.
	Digest uint64
}

// Stats is a snapshot of cache effectiveness counters.
type Stats struct {
	// FullHits / FullMisses count full-result lookups. A hit means an
	// entire compile was skipped.
	FullHits, FullMisses int64
	// PrefixHits / PrefixMisses count prefix-snapshot lookups. A hit means
	// coalescing, subgroup splitting and scheduling were skipped for one
	// compile (the snapshot is cloned instead).
	PrefixHits, PrefixMisses int64
	// AllocHits / AllocMisses count bank-oblivious allocation lookups. A
	// hit means the register allocation was skipped (only the per-bank
	// conflict analysis ran). Methods whose allocation reads the bank
	// count (bcr, bpc) never consult this layer.
	AllocHits, AllocMisses int64
	// DiskHits / DiskMisses count second-level (Backing) lookups. The
	// backing is consulted only on a full-layer memory miss, so a disk hit
	// is always paired with a FullMiss: memory hits are FullHits, disk
	// hits are FullMisses+DiskHits, cold compiles are FullMisses+
	// DiskMisses. Zero on a cache without a backing.
	DiskHits, DiskMisses int64
	// BytesRetained estimates the memory pinned by cached entries, as
	// reported by the compute callbacks. On a NewLimited cache it never
	// exceeds the cap once in-flight computes have settled.
	BytesRetained int64
	// Evictions counts entries dropped by the LRU byte cap (0 on an
	// unlimited cache).
	Evictions int64
	// FullEntries / PrefixEntries / AllocEntries count live entries per
	// layer.
	FullEntries, PrefixEntries, AllocEntries int
}

// FullHitRate returns FullHits / (FullHits + FullMisses), 0 when empty.
func (s Stats) FullHitRate() float64 { return rate(s.FullHits, s.FullMisses) }

// PrefixHitRate returns PrefixHits / (PrefixHits + PrefixMisses).
func (s Stats) PrefixHitRate() float64 { return rate(s.PrefixHits, s.PrefixMisses) }

// AllocHitRate returns AllocHits / (AllocHits + AllocMisses).
func (s Stats) AllocHitRate() float64 { return rate(s.AllocHits, s.AllocMisses) }

// DiskHitRate returns DiskHits / (DiskHits + DiskMisses) — the fraction of
// memory misses the second level absorbed.
func (s Stats) DiskHitRate() float64 { return rate(s.DiskHits, s.DiskMisses) }

// Delta returns the counters accumulated since prev was snapshotted from
// the same cache: monotonic counters are subtracted, while the gauges
// (BytesRetained and the entry counts) keep their current values. Stage
// runners over a shared cache use this to attribute hits and misses to the
// stage that issued them.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		FullHits:      s.FullHits - prev.FullHits,
		FullMisses:    s.FullMisses - prev.FullMisses,
		PrefixHits:    s.PrefixHits - prev.PrefixHits,
		PrefixMisses:  s.PrefixMisses - prev.PrefixMisses,
		AllocHits:     s.AllocHits - prev.AllocHits,
		AllocMisses:   s.AllocMisses - prev.AllocMisses,
		DiskHits:      s.DiskHits - prev.DiskHits,
		DiskMisses:    s.DiskMisses - prev.DiskMisses,
		Evictions:     s.Evictions - prev.Evictions,
		BytesRetained: s.BytesRetained,
		FullEntries:   s.FullEntries,
		PrefixEntries: s.PrefixEntries,
		AllocEntries:  s.AllocEntries,
	}
}

func rate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// entry is one singleflight slot: ready closes once val/bytes/err are set.
// Completed entries with retained bytes are linked into the LRU list
// (prev/next non-nil); in-flight and error entries are never linked.
type entry struct {
	ready chan struct{}
	val   any
	bytes int64
	err   error

	layer      layer
	key        Key
	prev, next *entry // LRU links; nil when unlinked
}

// Cache holds the two content-addressed layers. The zero value is not
// usable; call New or NewLimited.
type Cache struct {
	// guards: full, prefix, alloc, hits, misses, bytes, evictions, lruHead, lruTail, backing, diskHits, diskMisses
	mu     sync.Mutex
	full   map[Key]*entry
	prefix map[Key]*entry
	alloc  map[Key]*entry

	hits      [3]int64 // [layerFull], [layerPrefix], [layerAlloc]
	misses    [3]int64
	bytes     int64
	evictions int64

	// maxBytes caps bytes via LRU eviction; 0 means unlimited. Immutable
	// after New/NewLimited, so reads need no lock.
	maxBytes int64
	// lruHead/lruTail delimit the recency list, most recent at head.
	lruHead, lruTail *entry

	// backing is the optional second level behind the full layer; nil
	// means memory-only. diskHits/diskMisses count its lookups.
	backing              Backing
	diskHits, diskMisses int64
}

// Backing is a second cache level consulted on full-layer memory misses —
// in production a persistent on-disk store (internal/core wires the disk
// store through its Result codec; compilecache stays codec-agnostic).
//
// Load returns the cached value for k plus its retained-bytes estimate (the
// LRU charge once the value enters the memory layer). Store persists a
// freshly computed value; it must not block (the disk store's write-behind
// queue drops under pressure). Both are called inside the singleflight slot
// for k, so a Backing never sees concurrent calls for the same key from one
// cache, but must tolerate concurrent calls for different keys.
type Backing interface {
	Load(k Key) (val any, bytes int64, ok bool)
	Store(k Key, val any)
}

// SetFullBacking installs b as the second level behind the full layer.
// Call it before the cache starts serving lookups; b == nil disables the
// second level.
func (c *Cache) SetFullBacking(b Backing) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.backing = b
}

type layer int

const (
	layerFull layer = iota
	layerPrefix
	layerAlloc
)

// New returns an empty cache with no byte cap: entries are retained for the
// cache's lifetime, preserving byte-identity of repeated sweeps.
func New() *Cache {
	return &Cache{full: map[Key]*entry{}, prefix: map[Key]*entry{}, alloc: map[Key]*entry{}}
}

// NewLimited returns an empty cache that evicts least-recently-used entries
// (across both layers) whenever the retained-bytes estimate exceeds
// maxBytes. maxBytes <= 0 means unlimited (identical to New).
func NewLimited(maxBytes int64) *Cache {
	c := New()
	if maxBytes > 0 {
		c.maxBytes = maxBytes
	}
	return c
}

// MaxBytes returns the configured byte cap (0 = unlimited).
func (c *Cache) MaxBytes() int64 { return c.maxBytes }

// Full looks up (or computes) the full compile result for k. compute runs
// at most once per key across all goroutines; it returns the value to
// retain plus an estimate of its retained bytes. The second return reports
// whether the value came from the cache (true) or this call's compute
// (false). Deterministic errors are retained too: the pipeline is
// deterministic, so a failing key fails identically on every recompute.
// Context cancellation errors are the exception — they depend on the
// caller's deadline, not the key, so the entry is dropped and the next
// lookup recomputes.
func (c *Cache) Full(k Key, compute func() (any, int64, error)) (any, bool, error) {
	return c.do(layerFull, k, compute)
}

// Prefix looks up (or computes) the phase-prefix snapshot for k, with the
// same contract as Full.
func (c *Cache) Prefix(k Key, compute func() (any, int64, error)) (any, bool, error) {
	return c.do(layerPrefix, k, compute)
}

// Alloc looks up (or computes) a bank-oblivious allocation for k, with the
// same contract as Full. k.Digest must exclude every option the allocation
// does not read (core.Options.AllocDigest), so one entry serves every bank
// point of a sweep.
func (c *Cache) Alloc(k Key, compute func() (any, int64, error)) (any, bool, error) {
	return c.do(layerAlloc, k, compute)
}

// layerMap selects the map of one layer.
// holds: mu
func (c *Cache) layerMap(l layer) map[Key]*entry {
	switch l {
	case layerPrefix:
		return c.prefix
	case layerAlloc:
		return c.alloc
	default:
		return c.full
	}
}

func (c *Cache) do(l layer, k Key, compute func() (any, int64, error)) (any, bool, error) {
	for {
		c.mu.Lock()
		m := c.layerMap(l)
		if e, ok := m[k]; ok {
			c.hits[l]++
			c.moveToFront(e)
			c.mu.Unlock()
			<-e.ready
			if isContextErr(e.err) {
				// The computing goroutine's deadline expired mid-flight and
				// the entry was dropped; retry with this caller's compute
				// (which fails fast if its own context is also dead).
				continue
			}
			return e.val, true, e.err
		}
		e := &entry{ready: make(chan struct{}), layer: l, key: k}
		m[k] = e
		c.misses[l]++
		c.mu.Unlock()

		e.val, e.bytes, e.err = c.computeThrough(l, k, compute)
		c.settle(m, e)
		close(e.ready)
		return e.val, false, e.err
	}
}

// computeThrough runs compute behind the second level: on a full-layer miss
// with a backing installed, a backed value short-circuits the compute, and
// a freshly computed value is written behind. Runs inside the singleflight
// slot, so the backing is consulted at most once per in-flight key.
func (c *Cache) computeThrough(l layer, k Key, compute func() (any, int64, error)) (any, int64, error) {
	c.mu.Lock()
	b := c.backing
	c.mu.Unlock()
	if l != layerFull || b == nil {
		return compute()
	}
	if val, bytes, ok := b.Load(k); ok {
		c.mu.Lock()
		c.diskHits++
		c.mu.Unlock()
		return val, bytes, nil
	}
	c.mu.Lock()
	c.diskMisses++
	c.mu.Unlock()
	val, bytes, err := compute()
	if err == nil {
		b.Store(k, val)
	}
	return val, bytes, err
}

// settle finalizes a computed entry: context-cancellation errors are
// forgotten (the next lookup recomputes under a live deadline), successful
// values are charged to the byte budget and linked into the LRU list, and
// the cap is enforced.
func (c *Cache) settle(m map[Key]*entry, e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if isContextErr(e.err) {
		// Only remove the entry if it is still ours — a concurrent retry
		// cannot have replaced it before ready closes, but be safe.
		if m[e.key] == e {
			delete(m, e.key)
		}
		return
	}
	if e.bytes != 0 {
		c.bytes += e.bytes
		c.linkFront(e)
		c.evict()
	}
}

// evict drops LRU-tail entries until the byte budget fits the cap. Only
// linked (completed, byte-carrying) entries are ever evicted; in-flight
// singleflight slots and retained error entries are not in the list.
// holds: mu
func (c *Cache) evict() {
	if c.maxBytes <= 0 {
		return
	}
	for c.bytes > c.maxBytes && c.lruTail != nil {
		e := c.lruTail
		c.unlink(e)
		m := c.layerMap(e.layer)
		if m[e.key] == e {
			delete(m, e.key)
		}
		c.bytes -= e.bytes
		c.evictions++
	}
}

// linkFront pushes e to the head of the LRU list.
// holds: mu
func (c *Cache) linkFront(e *entry) {
	e.prev, e.next = nil, c.lruHead
	if c.lruHead != nil {
		c.lruHead.prev = e
	}
	c.lruHead = e
	if c.lruTail == nil {
		c.lruTail = e
	}
}

// moveToFront refreshes e's recency.
// holds: mu
func (c *Cache) moveToFront(e *entry) {
	if c.maxBytes <= 0 || c.lruHead == e || (e.prev == nil && e.next == nil && c.lruTail != e) {
		// Unlimited cache, already at front, or not linked (in-flight or
		// error entry) — nothing to reorder.
		return
	}
	c.unlink(e)
	c.linkFront(e)
}

// unlink removes e from the LRU list.
// holds: mu
func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.lruHead == e {
		c.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.lruTail == e {
		c.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}

func isContextErr(err error) bool {
	return err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// Stats returns a consistent snapshot of the counters. Lookups still in
// flight are counted as soon as they classified as hit or miss.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		FullHits:      c.hits[layerFull],
		FullMisses:    c.misses[layerFull],
		PrefixHits:    c.hits[layerPrefix],
		PrefixMisses:  c.misses[layerPrefix],
		AllocHits:     c.hits[layerAlloc],
		AllocMisses:   c.misses[layerAlloc],
		DiskHits:      c.diskHits,
		DiskMisses:    c.diskMisses,
		BytesRetained: c.bytes,
		Evictions:     c.evictions,
		FullEntries:   len(c.full),
		PrefixEntries: len(c.prefix),
		AllocEntries:  len(c.alloc),
	}
}
