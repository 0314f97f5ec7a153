package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
)

// The bucket layout is the /metricsz exposition contract: BucketOf and
// BucketUpper must round-trip, buckets must be contiguous and monotone, and
// the whole non-negative µs range must land in [0, NumBuckets).

func TestBucketRoundTrip(t *testing.T) {
	for b := 0; b < NumBuckets; b++ {
		up := BucketUpper(b)
		if got := BucketOf(up); got != b {
			t.Fatalf("BucketOf(BucketUpper(%d)=%d) = %d", b, up, b)
		}
		if b+1 < NumBuckets {
			if got := BucketOf(up + 1); got != b+1 {
				t.Fatalf("BucketOf(%d+1) = %d, want %d (buckets not contiguous)", up, got, b+1)
			}
		}
	}
}

func TestBucketUpperMonotone(t *testing.T) {
	prev := int64(-1)
	for b := 0; b < NumBuckets; b++ {
		up := BucketUpper(b)
		if up <= prev {
			t.Fatalf("BucketUpper(%d) = %d, not > BucketUpper(%d) = %d", b, up, b-1, prev)
		}
		prev = up
	}
	if last := BucketUpper(NumBuckets - 1); last != math.MaxInt64 {
		t.Fatalf("BucketUpper(last) = %d, want MaxInt64 (full µs range covered)", last)
	}
}

func TestBucketOfProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(us int64) {
		t.Helper()
		b := BucketOf(us)
		if b < 0 || b >= NumBuckets {
			t.Fatalf("BucketOf(%d) = %d out of range", us, b)
		}
		if up := BucketUpper(b); up < us {
			t.Fatalf("BucketUpper(BucketOf(%d)=%d) = %d < value", us, b, up)
		}
		if b > 0 {
			if lower := BucketUpper(b - 1); lower >= us {
				t.Fatalf("value %d ≤ BucketUpper(%d) = %d but bucketed into %d", us, b-1, lower, b)
			}
		}
	}
	for us := int64(0); us < 1<<14; us++ {
		check(us)
	}
	for i := 0; i < 200_000; i++ {
		check(rng.Int63())
	}
	for h := uint(0); h < 63; h++ {
		v := int64(1) << h
		for _, d := range []int64{-1, 0, 1} {
			if v+d >= 0 {
				check(v + d)
			}
		}
	}
	check(math.MaxInt64)
	if got := BucketOf(-5); got != 0 {
		t.Fatalf("BucketOf(-5) = %d, want clamp to 0", got)
	}
}

// TestHistogramFixture pins the `le` boundaries /metricsz renders
// (writeHistogram) to a committed fixture of samples and their non-empty
// [upper_us, count] buckets. If this fails, the exposed series have drifted.
func TestHistogramFixture(t *testing.T) {
	raw, err := os.ReadFile("testdata/bench_serve_v1_histogram.json")
	if err != nil {
		t.Fatal(err)
	}
	var fix struct {
		Samples   []int64    `json:"samples_us"`
		Histogram [][2]int64 `json:"histogram_us"`
	}
	if err := json.Unmarshal(raw, &fix); err != nil {
		t.Fatal(err)
	}
	h := NewHistogram()
	for _, s := range fix.Samples {
		h.Observe(s)
	}
	if got := nonEmpty(h); !reflect.DeepEqual(got, fix.Histogram) {
		t.Fatalf("histogram drifted from the committed fixture\n got: %v\nwant: %v", got, fix.Histogram)
	}
}

// nonEmpty lists h's non-empty buckets as sorted [upper_us, count] pairs.
func nonEmpty(h *Histogram) [][2]int64 {
	var out [][2]int64
	for b := range NumBuckets {
		if n := h.buckets[b].Load(); n > 0 {
			out = append(out, [2]int64{BucketUpper(b), n})
		}
	}
	return out
}

func TestHistogramCounts(t *testing.T) {
	h := NewHistogram()
	for _, us := range []int64{0, 1, 15, 16, 57, 1000, -3} {
		h.Observe(us)
	}
	if h.Count() != 7 {
		t.Fatalf("Count = %d, want 7", h.Count())
	}
	if h.SumUS() != 0+1+15+16+57+1000+0 {
		t.Fatalf("SumUS = %d", h.SumUS())
	}
	var total int64
	for _, p := range nonEmpty(h) {
		total += p[1]
	}
	if total != 7 {
		t.Fatalf("snapshot total = %d, want 7", total)
	}
}
