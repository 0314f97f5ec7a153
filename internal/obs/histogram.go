// Package obs is the module's dependency-free observability kit: a metrics
// registry (atomic counters, gauges and HDR-style latency histograms) with
// Prometheus text exposition, plus the request-ID scheme shared by the
// serving and routing tiers. Everything here is off the result path — no
// metric, trace or ID may influence what schedule a solve returns, and the
// golden/differential suites run with observability enabled to enforce it.
//
// The metric families, exposition format and request-ID propagation rules
// are documented in docs/OBSERVABILITY.md.
package obs

import (
	"sync/atomic"

	"math/bits"
)

// The log-linear bucket layout: exact 1µs buckets below 16µs, then four
// sub-buckets per power of two, HDR-histogram style. BucketUpper gives the
// `le` boundaries /metricsz renders (writeHistogram), and a committed
// fixture test pins them so a scraper's series cannot drift.
//
// NumBuckets covers every non-negative int64: the largest µs value has high
// bit 62, landing in bucket 16 + (62-4)*4 + 3 = 251.
const NumBuckets = 252

// BucketOf maps a latency in µs to its histogram bucket. Negative values
// (clock skew, caller bugs) clamp to bucket 0 rather than corrupting the
// index arithmetic.
func BucketOf(us int64) int {
	if us < 16 {
		if us < 0 {
			return 0
		}
		return int(us)
	}
	h := 63 - bits.LeadingZeros64(uint64(us))
	sub := int((us >> (h - 2)) & 3)
	return 16 + (h-4)*4 + sub
}

// BucketUpper is the inclusive upper bound (µs) of bucket b.
func BucketUpper(b int) int64 {
	if b < 16 {
		return int64(b)
	}
	b -= 16
	h := uint(b/4 + 4)
	sub := int64(b % 4)
	return int64(1)<<h + (sub+1)<<(h-2) - 1
}

// Histogram is a fixed-layout log-linear latency histogram safe for
// concurrent Observe. The bucket layout is the one above;
// observations are microseconds. The zero value is NOT ready — use
// NewHistogram (the fixed bucket array makes the type too large to copy
// casually, so it lives behind a pointer).
type Histogram struct {
	buckets [NumBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // µs
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one latency in µs.
func (h *Histogram) Observe(us int64) {
	if us < 0 {
		us = 0
	}
	h.buckets[BucketOf(us)].Add(1)
	h.count.Add(1)
	h.sum.Add(us)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// SumUS returns the sum of all observed values in µs.
func (h *Histogram) SumUS() int64 { return h.sum.Load() }
