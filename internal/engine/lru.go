package engine

import "sync"

// lru is a fixed-capacity least-recently-used map from memo keys to values.
// It is safe for concurrent use; one mutex suffices because the critical
// sections are pointer splices around a multi-millisecond solve. The engine
// keeps two: solutions keyed by the full (workload, options) fingerprint,
// and compiled instances keyed by the workload-only fingerprint.
type lru[V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[memoKey]*lruNode[V]
	head     *lruNode[V] // most recently used
	tail     *lruNode[V] // least recently used
}

type lruNode[V any] struct {
	key        memoKey
	value      V
	prev, next *lruNode[V]
}

func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{capacity: capacity, entries: make(map[memoKey]*lruNode[V], capacity)}
}

// get returns the cached value and promotes it to most recently used.
func (l *lru[V]) get(k memoKey) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, ok := l.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	l.unlink(n)
	l.pushFront(n)
	return n.value, true
}

// put inserts or refreshes a cached value, evicting the least recently
// used entry when full. A full cache reuses the evicted entry's node for
// the new one, so a put at capacity allocates nothing: nodes never leave
// the lru, and get hands out the value, not the node.
func (l *lru[V]) put(k memoKey, v V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, ok := l.entries[k]
	switch {
	case ok:
		l.unlink(n)
	case len(l.entries) >= l.capacity:
		n = l.tail
		l.unlink(n)
		delete(l.entries, n.key)
		n.key = k
		l.entries[k] = n
	default:
		n = &lruNode[V]{key: k}
		l.entries[k] = n
	}
	n.value = v
	l.pushFront(n)
}

// len returns the current entry count.
func (l *lru[V]) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

func (l *lru[V]) unlink(n *lruNode[V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else if l.head == n {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else if l.tail == n {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (l *lru[V]) pushFront(n *lruNode[V]) {
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}
