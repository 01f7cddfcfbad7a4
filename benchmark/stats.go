package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail figure read from fewer samples moves from run to run with the
// luck of a handful of requests.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted: the
// smallest sample with at least a q share of all samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond is the number of samples strictly above the nearest-rank
// q-quantile's position among n samples.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// holds reports whether n samples can hold the q-quantile: at least
// minBeyond samples lie beyond it.
func holds(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// highestHeld returns the highest of the candidate quantiles (ascending)
// that n samples hold, and false when none does.
func highestHeld(n int, candidates []float64) (float64, bool) {
	best, ok := 0.0, false
	for _, q := range candidates {
		if holds(n, q) {
			best, ok = q, true
		}
	}
	return best, ok
}

// minSamples is the smallest sample count that holds the q-quantile.
func minSamples(q float64) int {
	n := minBeyond
	for !holds(n, q) {
		n++
	}
	return n
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// windowedQuantiles splits xs, in the order they were taken, into
// consecutive windows of size samples (a remainder joins the last
// window) and returns, for each q of qs, the median over the windows of
// the window's q-quantile. A slow spell of a shared host that covers
// fewer than half the windows moves their quantiles but not the median,
// where it would move a quantile of the pooled samples.
func windowedQuantiles(xs []float64, size int, qs ...float64) []float64 {
	size = max(1, size)
	n := max(1, len(xs)/size)
	per := make([][]float64, len(qs))
	for w := 0; w < n; w++ {
		hi := (w + 1) * size
		if w == n-1 {
			hi = len(xs)
		}
		win := sortedCopy(xs[w*size : hi])
		for i, q := range qs {
			per[i] = append(per[i], percentile(win, q))
		}
	}
	out := make([]float64, len(qs))
	for i := range qs {
		out[i] = median(per[i])
	}
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMS converts durations to sorted float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
