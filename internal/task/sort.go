package task

// SortDescending stably sorts order so that keys[order[k]] is
// non-increasing: keys is indexed by the values order holds, not by their
// positions. Compares are exact, no tolerance.
//
// It is slices.SortStableFunc's own algorithm — insertion sort on blocks of
// 20, then rounds of SymMerge — specialised to this one comparison, which
// the compiler then inlines instead of calling a function value per
// compare. The same algorithm makes the same compares in the same order,
// so the result equals
//
//	slices.SortStableFunc(order, func(x, y int) int { return cmp(keys[x], keys[y]) })
//
// with cmp negative when x > y and positive when x < y, for every input —
// even keys holding NaN, which no stable order is defined for.
func SortDescending(order []int, keys []float64) {
	n := len(order)
	const blockSize = 20
	a, b := 0, blockSize
	for b <= n {
		insertionDescending(order, keys, a, b)
		a = b
		b += blockSize
	}
	insertionDescending(order, keys, a, n)

	for size := blockSize; size < n; size *= 2 {
		a, b = 0, 2*size
		for b <= n {
			symMergeDescending(order, keys, a, a+size, b)
			a = b
			b += 2 * size
		}
		if m := a + size; m < n {
			symMergeDescending(order, keys, a, m, n)
		}
	}
}

// insertionDescending sorts order[a:b] by insertion.
func insertionDescending(order []int, keys []float64, a, b int) {
	for i := a + 1; i < b; i++ {
		for j := i; j > a && keys[order[j]] > keys[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

// symMergeDescending merges the sorted runs order[a:m] and order[m:b] with
// SymMerge (Kim and Kutzner, ESA 2004), step for step as the slices
// package does; it assumes a < m < b.
func symMergeDescending(order []int, keys []float64, a, m, b int) {
	if m-a == 1 {
		// Insert order[a] before the first of order[m:b] not greater.
		i, j := m, b
		for i < j {
			h := int(uint(i+j) >> 1)
			if keys[order[h]] > keys[order[a]] {
				i = h + 1
			} else {
				j = h
			}
		}
		for k := a; k < i-1; k++ {
			order[k], order[k+1] = order[k+1], order[k]
		}
		return
	}
	if b-m == 1 {
		// Insert order[m] before the first of order[a:m] it is greater than.
		i, j := a, m
		for i < j {
			h := int(uint(i+j) >> 1)
			if !(keys[order[m]] > keys[order[h]]) {
				i = h + 1
			} else {
				j = h
			}
		}
		for k := m; k > i; k-- {
			order[k], order[k-1] = order[k-1], order[k]
		}
		return
	}

	mid := int(uint(a+b) >> 1)
	n := mid + m
	var start, r int
	if m > mid {
		start, r = n-b, mid
	} else {
		start, r = a, m
	}
	p := n - 1
	for start < r {
		c := int(uint(start+r) >> 1)
		if !(keys[order[p-c]] > keys[order[c]]) {
			start = c + 1
		} else {
			r = c
		}
	}

	end := n - start
	if start < m && m < end {
		rotate(order, start, m, end)
	}
	if a < start && start < mid {
		symMergeDescending(order, keys, a, start, mid)
	}
	if mid < end && end < b {
		symMergeDescending(order, keys, mid, end, b)
	}
}

// rotate turns the blocks u = order[a:m], v = order[m:b] into v u by block
// swaps; it assumes a < m < b.
func rotate(order []int, a, m, b int) {
	i, j := m-a, b-m
	for i != j {
		if i > j {
			swapRange(order, m-i, m, j)
			i -= j
		} else {
			swapRange(order, m-i, m+j-i, i)
			j -= i
		}
	}
	swapRange(order, m-i, m, i)
}

// swapRange swaps order[a:a+n] with order[b:b+n].
func swapRange(order []int, a, b, n int) {
	for i := 0; i < n; i++ {
		order[a+i], order[b+i] = order[b+i], order[a+i]
	}
}
