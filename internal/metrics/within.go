package metrics

import "pimassembler/internal/genome"

// withinDistance reports whether the semi-global edit distance of query
// inside target — the whole query fitted anywhere in the target, gaps before
// and after its window free — is at most maxDist. It scans two rows and
// exits at the first row whose minimum exceeds maxDist: how Evaluate
// classifies near-miss contigs. A negative maxDist always reports false.
func withinDistance(query, target *genome.Sequence, maxDist int) bool {
	if maxDist < 0 {
		return false
	}
	n, m := query.Len(), target.Len()
	if n == 0 {
		return true
	}
	// With free leading and trailing gaps a diagonal band cannot prune, so
	// bound the row values instead.
	prev := make([]int, m+1) // row 0 is all zero: free leading gaps
	cur := make([]int, m+1)
	for i := 1; i <= n; i++ {
		cur[0] = i
		rowMin := cur[0]
		for j := 1; j <= m; j++ {
			cost := 1
			if query.Base(i-1) == target.Base(j-1) {
				cost = 0
			}
			cur[j] = min3(prev[j-1]+cost, prev[j]+1, cur[j-1]+1)
			if cur[j] < rowMin {
				rowMin = cur[j]
			}
		}
		if rowMin > maxDist {
			return false
		}
		prev, cur = cur, prev
	}
	for j := 0; j <= m; j++ {
		if prev[j] <= maxDist {
			return true
		}
	}
	return false
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
