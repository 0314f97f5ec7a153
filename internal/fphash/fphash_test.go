package fphash

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

func sumWords(words ...uint64) uint64 {
	h := New()
	for _, w := range words {
		h.Word(w)
	}
	return h.Sum()
}

func sumString(s string) uint64 {
	h := New()
	h.String(s)
	return h.Sum()
}

// TestPinnedVectors pins the function itself. Fingerprints are not persisted,
// but a fleet mid-rollout routes by them: a router and a shard built from
// different releases must agree, so the kernel may not drift silently. A
// deliberate change updates these values and says so in CHANGES.md.
func TestPinnedVectors(t *testing.T) {
	for _, c := range []struct {
		name string
		got  uint64
		want uint64
	}{
		{"empty", sumWords(), 0xd8a310150df90781},
		{"word 0", sumWords(0), 0x33b84ac3b3be27d6},
		{"word 1", sumWords(1), 0xd646c22a95b21730},
		{"words 1 2 3 4", sumWords(1, 2, 3, 4), 0x63c72dbdffa9e31d},
		{"word max", sumWords(math.MaxUint64), 0xa315031f2f1f8078},
		{`string ""`, sumString(""), 0x33b84ac3b3be27d6},
		{`string "a"`, sumString("a"), 0x2e423f8e12f1dc5e},
		{`string "edges"`, sumString("edges"), 0x057867595f0d7641},
		{`string "portfolio"`, sumString("portfolio"), 0x568c7e1b251246d7},
		{`string "12345678"`, sumString("12345678"), 0xfd08357be685ca7e},
		{`string "123456789"`, sumString("123456789"), 0xd37f269e81451707},
	} {
		if c.got != c.want {
			t.Errorf("%s: %#016x, pinned %#016x", c.name, c.got, c.want)
		}
	}
}

// TestStringPacksLittleEndian ties String to Word: the length, then the bytes
// eight to a word, low byte first, tail zero-padded.
func TestStringPacksLittleEndian(t *testing.T) {
	if got, want := sumString("123456789"), sumWords(9, 0x3837363534333231, 0x39); got != want {
		t.Fatalf("String = %#x, words = %#x", got, want)
	}
	if sumString("ab") == sumString("ab\x00") {
		t.Fatal("zero padding aliases a trailing NUL: the length word must tell them apart")
	}
}

// TestSumDoesNotConsume: the engine sums the workload prefix for the compiled
// cache key and keeps folding the options into the same state for the memo.
func TestSumDoesNotConsume(t *testing.T) {
	h := New()
	h.Word(7)
	_ = h.Sum()
	h.Word(9)
	if h.Sum() != sumWords(7, 9) {
		t.Fatal("Sum changed the running state")
	}
}

// workloadStream is the word stream of a 24×16 workload fingerprint: machine
// size, task count, then per task its width and time table.
func workloadStream(rng *rand.Rand) []uint64 {
	const n, m = 24, 16
	words := []uint64{m, n}
	for i := 0; i < n; i++ {
		words = append(words, m)
		t := 1 + 99*rng.Float64()
		for p := 1; p <= m; p++ {
			words = append(words, math.Float64bits(t/math.Pow(float64(p), 0.8)))
		}
	}
	return words
}

// TestSingleBitAvalanche flips every input bit of a 24×16 workload stream in
// turn: each flip must change the sum, and on average half its bits.
func TestSingleBitAvalanche(t *testing.T) {
	words := workloadStream(rand.New(rand.NewSource(1)))
	base := sumWords(words...)
	var flipped, trials int
	for i := range words {
		for b := 0; b < 64; b++ {
			words[i] ^= 1 << b
			d := bits.OnesCount64(base ^ sumWords(words...))
			words[i] ^= 1 << b
			if d == 0 {
				t.Fatalf("flipping bit %d of word %d leaves the sum unchanged", b, i)
			}
			flipped += d
			trials++
		}
	}
	if mean := float64(flipped) / float64(trials); mean < 28 || mean > 36 {
		t.Fatalf("mean flipped output bits %.2f over %d single-bit flips, want 32 ± 4", mean, trials)
	}
}
