package core

// SolveTrace captures the λ-search trajectory of one Approximate call for
// observability: every consumed probe in consumption order, which — by the
// drivers' shared contract — is the sequential probe order at every
// Parallelism and warm mode. Speculative probes whose guess the search path
// never reaches are never consumed and never appear.
//
// Tracing is strictly off the result path: Options.Trace changes no probe,
// no comparison and no returned field, only what is recorded on the side
// (the golden and differential suites run with tracing enabled to enforce
// it). A trace therefore costs one slice append plus one segment lookup
// per consumed probe — and, once per compiled instance, the sort that
// builds the breakpoint axis those lookups index (an untraced search never
// touches it).
type SolveTrace struct {
	// Probes are the consumed outcomes in sequential search order.
	Probes []ProbeTrace
	// SearchNS is the wall-clock time of the search driver in nanoseconds
	// (doubling + bisection, probes included; compilation excluded).
	SearchNS int64
}

// ProbeTrace is one consumed probe outcome.
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
