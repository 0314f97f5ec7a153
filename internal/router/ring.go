package router

import (
	"fmt"
	"sort"
)

// ring is a consistent-hash ring over the backend set: each backend owns
// vnodes points on the 64-bit hash circle, and a key routes to the owner
// of the first point at or clockwise after it. The point positions are a
// pure function of each backend's stable name, never of the set — adding
// a backend therefore only claims keys for the new backend (every other
// key keeps its owner), and removing one only releases its own keys. That
// is the resharding bound the memo/compiled/warm locality of the shards
// depends on: growing N→N+1 remaps an expected 1/(N+1) of the keyspace,
// enforced by TestReshardingBound.
type ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash    uint64
	backend int
}

// defaultVNodes balances the ring to within a few percent per backend
// without making routing's binary search noticeable.
const defaultVNodes = 160

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashString is 64-bit FNV-1a with a murmur-style finalizer, over a
// string's or a byte slice's bytes with no copy; stable across processes
// and releases (the ring layout is part of the deployment contract — see
// docs/SERVICE.md). Raw FNV avalanches poorly
// into the high bits on short inputs like vnode labels and lineage keys,
// and ring position ordering is dominated by exactly those bits — without
// the finalizer, per-backend keyspace shares are off by 2× and the
// resharding bound fails.
func hashString[S ~string | ~[]byte](s S) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// newRing builds the ring from the backends' stable names. Duplicate
// names are rejected: two backends hashing identical vnode sets would
// shadow each other nondeterministically.
func newRing(names []string, vnodes int) (*ring, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("router: no backends")
	}
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	seen := make(map[string]bool, len(names))
	r := &ring{points: make([]ringPoint, 0, len(names)*vnodes)}
	for b, name := range names {
		if seen[name] {
			return nil, fmt.Errorf("router: duplicate backend name %q", name)
		}
		seen[name] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hashString(fmt.Sprintf("%s#%d", name, v)),
				backend: b,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A full 64-bit vnode collision between different backends is
		// vanishingly rare; break it deterministically by index so every
		// router instance agrees.
		return r.points[i].backend < r.points[j].backend
	})
	return r, nil
}

// route returns the backend owning key: binary search for the first point
// ≥ key, wrapping to the first point past the top of the circle.
func (r *ring) route(key uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].backend
}
