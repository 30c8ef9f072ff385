package main

import "math/bits"

// subBits sets the histogram's resolution: 2^subBits linear sub-buckets
// per power of two, so a bucket is at most 1/64 ≈ 1.6% of its value.
const (
	subBits    = 6
	subBuckets = 1 << subBits
	histSlots  = (64 - subBits + 1) * subBuckets
)

// hist is a log-linear latency histogram in nanoseconds. Each client
// owns its own and never shares it while recording, so the hot path is
// one array increment with no atomics; clients' histograms are merged
// after the run.
type hist struct {
	counts [histSlots]uint64
	n      uint64
}

func histIndex(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1 // v>>e lies in [subBuckets, 2*subBuckets)
	return (e+1)*subBuckets + int(v>>uint(e)) - subBuckets
}

// bucketRange is slot i's value range [lo, lo+width).
func bucketRange(i int) (lo, width float64) {
	if i < subBuckets {
		return float64(i), 1
	}
	e := uint(i/subBuckets - 1)
	return float64(uint64(subBuckets+i%subBuckets) << e), float64(uint64(1) << e)
}

func (h *hist) record(ns uint64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty),
// interpolating linearly inside the bucket that holds the rank so that
// small shifts of the distribution move the estimate smoothly.
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
			lo, width := bucketRange(i)
			return lo + width*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, width := bucketRange(histSlots - 1)
	return lo + width
}
