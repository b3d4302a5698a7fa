package containers

import (
	"sync"
	"sync/atomic"
)

// CuckooMap is a concurrent cuckoo hash map (paper Section III-D1): two
// bucket arrays addressed by independent hash functions, so every key has
// exactly two candidate slots and lookups probe at most two buckets.
//
// Concurrency discipline: inserts, updates, finds, and deletes operate on
// per-slot atomic pointers under a shared latch; only bucket displacement
// (kicking a resident key to its alternate slot) and table resizing take
// the latch exclusively. This keeps the common path CAS-only — the paper's
// lock-free claim — while making the rare relocation path simple to reason
// about. Resizing doubles the table at a 0.75 load factor, matching the
// paper's defaults (initial capacity 128 buckets, factor 0.75).
type CuckooMap[K comparable, V any] struct {
	h1, h2 Hasher[K]
	latch  sync.RWMutex
	tab    atomic.Pointer[cuckooTable[K, V]]
	count  atomic.Int64
}

type cuckooTable[K comparable, V any] struct {
	b1, b2 []atomic.Pointer[cuckooEntry[K, V]]
	mask   uint64
}

type cuckooEntry[K comparable, V any] struct {
	k K
	v V
}

// DefaultBuckets is the initial number of buckets per array.
const DefaultBuckets = 128

// maxKicks bounds the displacement chain before the table grows.
const maxKicks = 32

// NewCuckooMap returns an empty map with the default initial capacity.
func NewCuckooMap[K comparable, V any]() *CuckooMap[K, V] {
	return NewCuckooMapSize[K, V](DefaultBuckets)
}

// NewCuckooMapSize returns an empty map with at least size buckets per
// array (rounded up to a power of two).
func NewCuckooMapSize[K comparable, V any](size int) *CuckooMap[K, V] {
	m := &CuckooMap[K, V]{h1: NewHasher[K](), h2: NewHasher[K]()}
	m.tab.Store(newCuckooTable[K, V](size))
	return m
}

func newCuckooTable[K comparable, V any](size int) *cuckooTable[K, V] {
	n := 8
	for n < size {
		n <<= 1
	}
	return &cuckooTable[K, V]{
		b1:   make([]atomic.Pointer[cuckooEntry[K, V]], n),
		b2:   make([]atomic.Pointer[cuckooEntry[K, V]], n),
		mask: uint64(n - 1),
	}
}

// Len reports the number of entries.
func (m *CuckooMap[K, V]) Len() int { return int(m.count.Load()) }

// Capacity reports the total number of slots across both arrays.
func (m *CuckooMap[K, V]) Capacity() int {
	t := m.tab.Load()
	return len(t.b1) + len(t.b2)
}

// LoadFactor reports entries / slots.
func (m *CuckooMap[K, V]) LoadFactor() float64 {
	return float64(m.count.Load()) / float64(m.Capacity())
}

// Find returns the value stored under k.
func (m *CuckooMap[K, V]) Find(k K) (V, bool) {
	m.latch.RLock()
	defer m.latch.RUnlock()
	t := m.tab.Load()
	if e := t.b1[m.h1(k)&t.mask].Load(); e != nil && e.k == k {
		return e.v, true
	}
	if e := t.b2[m.h2(k)&t.mask].Load(); e != nil && e.k == k {
		return e.v, true
	}
	var zero V
	return zero, false
}

// Contains reports whether k is present.
func (m *CuckooMap[K, V]) Contains(k K) bool {
	_, ok := m.Find(k)
	return ok
}

// Insert stores v under k, replacing any previous value. It returns true
// when k was newly inserted, false when an existing entry was updated —
// repeated insertions of the same key are always consistent, as the paper
// requires of its cuckoo structures.
func (m *CuckooMap[K, V]) Insert(k K, v V) bool {
	e := &cuckooEntry[K, V]{k: k, v: v}
	inserted, done := m.tryInsert(e)
	if !done {
		// Both candidate slots hold other keys: displace under the
		// exclusive latch, growing as needed.
		inserted = m.insertSlow(e)
	}
	if inserted {
		m.count.Add(1)
		if m.LoadFactor() > 0.75 {
			m.grow()
		}
	}
	return inserted
}

// tryInsert attempts the CAS fast path. done=false means both slots are
// occupied by other keys and displacement is required.
func (m *CuckooMap[K, V]) tryInsert(e *cuckooEntry[K, V]) (inserted, done bool) {
	m.latch.RLock()
	defer m.latch.RUnlock()
	t := m.tab.Load()
	s1 := &t.b1[m.h1(e.k)&t.mask]
	s2 := &t.b2[m.h2(e.k)&t.mask]
	for {
		e1, e2 := s1.Load(), s2.Load()
		switch {
		case e1 != nil && e1.k == e.k:
			if s1.CompareAndSwap(e1, e) {
				return false, true
			}
		case e2 != nil && e2.k == e.k:
			if s2.CompareAndSwap(e2, e) {
				return false, true
			}
		case e1 == nil:
			if s1.CompareAndSwap(nil, e) {
				return true, true
			}
		case e2 == nil:
			if s2.CompareAndSwap(nil, e) {
				return true, true
			}
		default:
			return false, false
		}
	}
}

// insertSlow handles the displacement path under the exclusive latch. It
// reports whether k was newly inserted (false when another writer inserted
// the same key first and this call degraded to an update).
func (m *CuckooMap[K, V]) insertSlow(e *cuckooEntry[K, V]) bool {
	m.latch.Lock()
	defer m.latch.Unlock()
	t := m.tab.Load()
	// Re-check under the latch: the key may have appeared meanwhile.
	if s := &t.b1[m.h1(e.k)&t.mask]; s.Load() != nil && s.Load().k == e.k {
		s.Store(e)
		return false
	}
	if s := &t.b2[m.h2(e.k)&t.mask]; s.Load() != nil && s.Load().k == e.k {
		s.Store(e)
		return false
	}
	// Walk the displacement chain. If it fails after maxKicks, e is
	// already placed in t and the final evictee is homeless — rebuild
	// into a doubled table that also includes the evictee.
	if evictee, ok := placeWithKicks(m, t, e); !ok {
		m.growLocked(t, evictee)
	}
	return true
}

// placeWithKicks walks a cuckoo displacement chain starting with e. On
// success the evictee is nil; on failure the homeless evictee is returned.
func placeWithKicks[K comparable, V any](m *CuckooMap[K, V], t *cuckooTable[K, V], e *cuckooEntry[K, V]) (*cuckooEntry[K, V], bool) {
	cur := e
	useFirst := true
	for kick := 0; kick < maxKicks; kick++ {
		var slot *atomic.Pointer[cuckooEntry[K, V]]
		if useFirst {
			slot = &t.b1[m.h1(cur.k)&t.mask]
		} else {
			slot = &t.b2[m.h2(cur.k)&t.mask]
		}
		victim := slot.Load()
		slot.Store(cur)
		if victim == nil {
			return nil, true
		}
		cur = victim
		useFirst = !useFirst
	}
	return cur, false
}

// grow doubles the table under the exclusive latch (load-factor trigger).
func (m *CuckooMap[K, V]) grow() {
	m.latch.Lock()
	defer m.latch.Unlock()
	t := m.tab.Load()
	// Re-check: another writer may have grown the table already.
	if float64(m.count.Load()) <= 0.75*float64(len(t.b1)+len(t.b2)) {
		return
	}
	m.growLocked(t, nil)
}

// growLocked rebuilds into a table at least twice as large, including the
// optional homeless extra entry. Caller holds the exclusive latch. The new
// table is returned (and stored).
func (m *CuckooMap[K, V]) growLocked(old *cuckooTable[K, V], extra *cuckooEntry[K, V]) *cuckooTable[K, V] {
	size := len(old.b1) * 2
	for {
		nt := newCuckooTable[K, V](size)
		if rehashInto(m, nt, old, extra) {
			m.tab.Store(nt)
			return nt
		}
		size *= 2
	}
}

// rehashInto re-places every entry of old (plus extra) into nt, reporting
// false if some displacement chain fails.
func rehashInto[K comparable, V any](m *CuckooMap[K, V], nt, old *cuckooTable[K, V], extra *cuckooEntry[K, V]) bool {
	insert := func(e *cuckooEntry[K, V]) bool {
		_, ok := placeWithKicks(m, nt, e)
		return ok
	}
	for i := range old.b1 {
		if e := old.b1[i].Load(); e != nil && !insert(e) {
			return false
		}
	}
	for i := range old.b2 {
		if e := old.b2[i].Load(); e != nil && !insert(e) {
			return false
		}
	}
	if extra != nil && !insert(extra) {
		return false
	}
	return true
}

// Upsert atomically installs fn(old, exists) under k: an existing entry is
// replaced with a CAS-retry loop (no lost updates under concurrent
// merging), an absent key is inserted with fn(zero, false). It returns
// true when k was newly inserted. This is the primitive behind HCL's
// server-side merge operations (e.g. histogram increments executed in one
// invocation).
func (m *CuckooMap[K, V]) Upsert(k K, fn func(old V, exists bool) V) bool {
	var zero V
	for attempt := 0; ; attempt++ {
		if updated, retry := m.tryUpdate(k, fn); updated {
			return false
		} else if retry {
			continue
		}
		// Key absent at the moment of the scan: attempt a fresh insert
		// into an empty candidate slot.
		e := &cuckooEntry[K, V]{k: k, v: fn(zero, false)}
		if inserted, done := m.tryInsertAbsent(e); done && inserted {
			m.count.Add(1)
			if m.LoadFactor() > 0.75 {
				m.grow()
			}
			return true
		}
		if attempt == 0 {
			continue // one optimistic rescan before taking the latch
		}
		// Resolve definitively under the exclusive latch (handles full
		// candidate slots via displacement/growth).
		inserted, handled := m.upsertSlow(k, fn)
		if !handled {
			continue
		}
		if inserted {
			m.count.Add(1)
			if m.LoadFactor() > 0.75 {
				m.grow()
			}
		}
		return inserted
	}
}

// upsertSlow resolves an upsert under the exclusive latch. handled is
// always true; the pair keeps the call-site symmetric with the fast path.
func (m *CuckooMap[K, V]) upsertSlow(k K, fn func(old V, exists bool) V) (inserted, handled bool) {
	m.latch.Lock()
	defer m.latch.Unlock()
	t := m.tab.Load()
	for _, slot := range []*atomic.Pointer[cuckooEntry[K, V]]{
		&t.b1[m.h1(k)&t.mask], &t.b2[m.h2(k)&t.mask],
	} {
		if e := slot.Load(); e != nil && e.k == k {
			slot.Store(&cuckooEntry[K, V]{k: k, v: fn(e.v, true)})
			return false, true
		}
	}
	var zero V
	e := &cuckooEntry[K, V]{k: k, v: fn(zero, false)}
	if evictee, ok := placeWithKicks(m, t, e); !ok {
		m.growLocked(t, evictee)
	}
	return true, true
}

// tryUpdate CAS-replaces the entry for k if present. retry is true when a
// CAS lost a race and the caller should rescan.
func (m *CuckooMap[K, V]) tryUpdate(k K, fn func(old V, exists bool) V) (updated, retry bool) {
	m.latch.RLock()
	defer m.latch.RUnlock()
	t := m.tab.Load()
	for _, slot := range []*atomic.Pointer[cuckooEntry[K, V]]{
		&t.b1[m.h1(k)&t.mask], &t.b2[m.h2(k)&t.mask],
	} {
		if e := slot.Load(); e != nil && e.k == k {
			ne := &cuckooEntry[K, V]{k: k, v: fn(e.v, true)}
			if slot.CompareAndSwap(e, ne) {
				return true, false
			}
			return false, true
		}
	}
	return false, false
}

// tryInsertAbsent inserts e only into an empty candidate slot. done=false
// means the slots are occupied (possibly by the key itself now) and the
// caller must rescan; inserted reports success. A lost CAS reloads both
// slots before trying again: the winner may have stored this very key,
// and CASing the other slot against a stale nil would store it twice.
func (m *CuckooMap[K, V]) tryInsertAbsent(e *cuckooEntry[K, V]) (inserted, done bool) {
	m.latch.RLock()
	defer m.latch.RUnlock()
	t := m.tab.Load()
	s1 := &t.b1[m.h1(e.k)&t.mask]
	s2 := &t.b2[m.h2(e.k)&t.mask]
	for {
		e1, e2 := s1.Load(), s2.Load()
		switch {
		case (e1 != nil && e1.k == e.k) || (e2 != nil && e2.k == e.k):
			return false, false // key reappeared; caller re-runs the update path
		case e1 == nil:
			if s1.CompareAndSwap(nil, e) {
				return true, true
			}
		case e2 == nil:
			if s2.CompareAndSwap(nil, e) {
				return true, true
			}
		default:
			// Both occupied by other keys: fall back to the displacing
			// slow path, which re-checks for the key under the latch.
			return false, false
		}
	}
}

// Delete removes k, reporting whether it was present.
func (m *CuckooMap[K, V]) Delete(k K) bool {
	m.latch.RLock()
	defer m.latch.RUnlock()
	t := m.tab.Load()
	s1 := &t.b1[m.h1(k)&t.mask]
	s2 := &t.b2[m.h2(k)&t.mask]
	for {
		if e := s1.Load(); e != nil && e.k == k {
			if s1.CompareAndSwap(e, nil) {
				m.count.Add(-1)
				return true
			}
			continue
		}
		if e := s2.Load(); e != nil && e.k == k {
			if s2.CompareAndSwap(e, nil) {
				m.count.Add(-1)
				return true
			}
			continue
		}
		return false
	}
}

// Range calls fn for every entry until fn returns false. The iteration is
// a weakly-consistent snapshot, like sync.Map.
func (m *CuckooMap[K, V]) Range(fn func(K, V) bool) {
	m.latch.RLock()
	t := m.tab.Load()
	m.latch.RUnlock()
	for i := range t.b1 {
		if e := t.b1[i].Load(); e != nil && !fn(e.k, e.v) {
			return
		}
	}
	for i := range t.b2 {
		if e := t.b2[i].Load(); e != nil && !fn(e.k, e.v) {
			return
		}
	}
}

// Reserve grows the table until it can hold at least n entries at the
// target load factor — the explicit resize of the paper's Table I.
func (m *CuckooMap[K, V]) Reserve(n int) {
	m.latch.Lock()
	defer m.latch.Unlock()
	t := m.tab.Load()
	for (len(t.b1)+len(t.b2))*3/4 < n {
		t = m.growLocked(t, nil)
	}
}
