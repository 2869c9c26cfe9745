package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest value with at least p percent of the
// samples at or below it. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the middle value of vs (the mean of the two middle ones
// for an even count) without reordering the caller's slice.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(vs []float64) float64 {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// medianSliceRate cuts the window [0, window) into nSlices equal slices
// and returns the median slice's rate per second. One burst from a
// neighbour on a shared box slows one or two slices, not the median. A
// slice's rate is the number of completions in it over the time they
// took: from the last completion before the slice (the slice's start,
// for the first) to the last one in it. endsNs are completion times in
// ns from the window's start; those at or after its end are not counted.
func medianSliceRate(endsNs []int64, windowNs int64, nSlices int) float64 {
	sliceNs := windowNs / int64(nSlices)
	counts := make([]float64, nSlices)
	last := make([]int64, nSlices)
	for _, e := range endsNs {
		if i := e / sliceNs; e >= 0 && i < int64(nSlices) {
			counts[i]++
			last[i] = max(last[i], e)
		}
	}
	rates := make([]float64, nSlices)
	var prev int64
	for i := range rates {
		if counts[i] > 0 {
			rates[i] = counts[i] / (float64(last[i]-prev) / 1e9)
			prev = last[i]
		}
	}
	return median(rates)
}

// interval is a half-open time range in ns.
type interval struct{ start, end int64 }

// unionNs returns the total length covered by the intervals, counting
// overlapping stretches once, clipped to [lo, hi).
func unionNs(ivs []interval, lo, hi int64) int64 {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	cur := lo
	for _, iv := range s {
		a, b := iv.start, iv.end
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
