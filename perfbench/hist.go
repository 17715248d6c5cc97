package main

import (
	"math/bits"
	"sort"
)

// hist is a log-linear histogram of durations in nanoseconds: exact below
// 8 ns, then eight buckets per power of two (relative bucket width at most
// 1/8), saturating at 2^32 ns. It is a fixed-size value with no pointers,
// so one per LP costs about a kilobyte and adding a sample allocates
// nothing.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	sum    uint64
}

const (
	histSub     = 8
	histMax     = 1<<32 - 1
	histBuckets = (32-3)*histSub + histSub
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	if v > histMax {
		v = histMax
	}
	shift := bits.Len64(v) - 4
	return (shift+1)*histSub + int(v>>shift)&(histSub-1)
}

// histBounds returns the half-open value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	shift := i/histSub - 1
	base := uint64(histSub+i%histSub) << shift
	return float64(base), float64(base + 1<<shift)
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
	h.sum += uint64(ns)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile (0 < q < 1), interpolating linearly
// inside the bucket that holds it. An empty histogram reads 0.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, _ := histBounds(histBuckets - 1)
	return lo
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantileOf returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}
