package main

import (
	"math/bits"
	"sort"
	"syscall"
)

// hist is a log-linear histogram of non-negative int64 samples (nanoseconds
// everywhere in this benchmark): 64 sub-buckets per power of two, so a bucket
// is at most 1.6 % wide, and quantiles interpolate inside the bucket by rank.
// Recording is O(1) and allocation-free, which keeps the observers off the
// allocs_per_update and cpu_us_per_update metrics as far as possible.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	sum    float64
	max    int64
}

const (
	histSub     = 64
	histBuckets = 40 * histSub // values up to 2^45 ns (≈ 9.8 h)
)

func bucketOf(v int64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // ≥ 6
	b := (e-5)*histSub + int((v>>(e-6))&(histSub-1))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// bucketBounds returns the inclusive lower bound and the width of bucket b.
func bucketBounds(b int) (lo, width float64) {
	if b < histSub {
		return float64(b), 1
	}
	e := b/histSub + 5
	m := b % histSub
	return float64(int64(histSub+m) << (e - 6)), float64(int64(1) << (e - 6))
}

// add records v. A negative sample (two clock reads on different goroutines
// can cross by a few ns) lands in bucket 0 but keeps its sign in the mean, so
// means of spans still add up exactly.
func (h *hist) add(v int64) {
	h.sum += float64(v)
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *hist) reset() { *h = hist{} }

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// quantile returns the q-quantile (0 < q < 1), interpolated by rank inside
// the bucket that holds it; 0 when the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.max == 0 {
		return 0 // empty, or a span that does not exist on this workload
	}
	rank := q * float64(h.n)
	cum := 0.0
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if next := cum + float64(c); next >= rank {
			lo, width := bucketBounds(b)
			return lo + width*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return float64(h.max)
}

// quartiles returns the first quartile, median and third quartile of xs with
// the exclusive method Python's statistics.quantiles(xs, n=4) uses, so spreads
// printed here match the ones the acceptance procedure computes.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 3 cut points, 1-based
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// processCPUNs is the process's cumulative user+system CPU time.
func processCPUNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return (int64(ru.Utime.Sec)+int64(ru.Stime.Sec))*1e9 +
		(int64(ru.Utime.Usec)+int64(ru.Stime.Usec))*1e3
}
