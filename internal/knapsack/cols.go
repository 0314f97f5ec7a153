package knapsack

// Cols is an incrementally maintained weight/profit column pair for the
// Solver, plus a caller-chosen integer tag per column (the task id behind
// the item). The dual search's two-shelf step assembles its knapsack
// columns once per probe; between consecutive probes of a search — and
// between consecutive residual re-solves of a warm replanning lineage —
// most of the movable set is unchanged, so the columns are delta-updated
// against the previous contents instead of reassembled: new arrivals are
// appended, re-scaled jobs are patched in place, and a departure drops the
// suffix from its position on, which is then rebuilt. The maintained
// slices are exactly what a from-scratch rebuild would produce (the
// property tests assert it element-wise), so the solver outputs — including
// DP tie-breaking, which depends on item order — are identical.
//
// The zero value is empty and ready to use. Cols is not safe for concurrent
// use; it lives in the per-worker core.Scratch.
type Cols struct {
	tags, weights, profits []int
}

// Append adds one column at the end.
func (c *Cols) Append(tag, weight, profit int) {
	c.tags = append(c.tags, tag)
	c.weights = append(c.weights, weight)
	c.profits = append(c.profits, profit)
}

// Patch overwrites column k's weight and profit in place, keeping its tag
// and position (a job whose remaining work was re-scaled between replans).
func (c *Cols) Patch(k, weight, profit int) {
	c.weights[k] = weight
	c.profits[k] = profit
}

// Truncate drops every column at index n and beyond.
func (c *Cols) Truncate(n int) {
	if n < len(c.tags) {
		c.tags, c.weights, c.profits = c.tags[:n], c.weights[:n], c.profits[:n]
	}
}

// Sync is the delta engine: it makes position k hold exactly (tag, weight,
// profit) and returns k+1. When the incumbent column at k carries the same
// tag the values are patched in place if they changed; otherwise the
// membership diverged at k — everything from k on is dropped and the column
// is appended, so subsequent Syncs rebuild only the diverged suffix. A
// caller that Syncs its desired sequence positionally and Truncates to the
// final cursor always ends with columns equal to a from-scratch rebuild,
// whatever state the Cols started in (staleness is self-healing).
func (c *Cols) Sync(k, tag, weight, profit int) int {
	if k < len(c.tags) && c.tags[k] == tag {
		if c.weights[k] != weight || c.profits[k] != profit {
			c.Patch(k, weight, profit)
		}
		return k + 1
	}
	c.Truncate(k)
	c.Append(tag, weight, profit)
	return k + 1
}

// Tags returns the tag column, aliased until the next mutation.
func (c *Cols) Tags() []int { return c.tags }

// Weights returns the weight column, aliased until the next mutation.
func (c *Cols) Weights() []int { return c.weights }

// Profits returns the profit column, aliased until the next mutation.
func (c *Cols) Profits() []int { return c.profits }
