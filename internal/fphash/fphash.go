// Package fphash is the one fingerprint kernel of the module: a
// deterministic, unseeded 64-bit hash over a stream of uint64 words. The
// engine's memo and compiled-cache keys, the routing tier's wire.RouteKey
// and the DAG solver's edge hash all fold their streams through it, so two
// layers that hash the same words in the same order agree by construction.
//
// Each word costs one multiply-rotate-multiply step (the xxHash64 lane
// round; the word's own multiply sits off the dependency chain), and Sum
// finishes with the xxHash64 avalanche so every input bit reaches every
// output bit — callers reduce the sum with % and by ring position alike.
// Values are stable across processes and platforms and never persisted:
// they only decide where a request runs and which cache slot it probes.
package fphash

import "math/bits"

const (
	prime1 = 0x9E3779B185EBCA87
	prime2 = 0xC2B2AE3D27D4EB4F
	prime3 = 0x165667B19E3779F9
)

// Hash is the running state of one fingerprint; start from New. It is a
// plain value, so copying it forks the stream (the engine hashes a
// workload once and derives both the memo key and the compiled-cache key
// from that prefix).
type Hash uint64

// New returns the initial state.
func New() Hash { return prime3 }

// Word folds one 64-bit word into the state.
func (h *Hash) Word(v uint64) {
	*h = Hash(bits.RotateLeft64(uint64(*h)+v*prime2, 31) * prime1)
}

// String folds a string: its length, then its bytes packed little-endian
// eight to a word (the tail zero-padded — the length word disambiguates).
func (h *Hash) String(s string) {
	h.Word(uint64(len(s)))
	for i := 0; i < len(s); i += 8 {
		var w uint64
		for j := 0; j < 8 && i+j < len(s); j++ {
			w |= uint64(s[i+j]) << (8 * j)
		}
		h.Word(w)
	}
}

// Sum returns the finished 64-bit fingerprint of the words folded so far.
// It does not modify the state, so a stream can be summed and continued.
func (h Hash) Sum() uint64 {
	x := uint64(h)
	x = (x ^ x>>33) * prime2
	x = (x ^ x>>29) * prime3
	return x ^ x>>32
}
