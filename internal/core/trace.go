package core

// SolveTrace captures the λ-search trajectory of one Approximate call for
// observability: every probe outcome in probe order, synthesized ones
// included in warm mode.
//
// Tracing is strictly off the result path: Options.Trace changes no probe,
// no comparison and no returned field, only what is recorded on the side
// (the golden and differential suites run with tracing enabled to enforce
// it). A trace therefore costs one slice append plus one segment lookup
// per probe — and, once per compiled instance, the sort that
// builds the breakpoint axis those lookups index (an untraced search never
// touches it).
type SolveTrace struct {
	// Probes are the outcomes in search order.
	Probes []ProbeTrace
	// SearchNS is the wall-clock time of the search driver in nanoseconds
	// (doubling + bisection, probes included; compilation excluded).
	SearchNS int64
}

// ProbeTrace is one probe outcome.
type ProbeTrace struct {
	// Lambda is the deadline guess.
	Lambda float64
	// Segment is the λ-breakpoint segment index of Lambda in the compiled
	// tables (never negative).
	Segment int
	// Accepted reports whether the dual step produced a schedule.
	Accepted bool
	// Reject classifies a rejection (RejectNone when accepted).
	Reject RejectReason
	// Certified reports that the rejection proves OPT > λ.
	Certified bool
	// Synthesized reports that a warm search resolved the outcome from the
	// compiled segment tables without running the dual step.
	Synthesized bool
}
