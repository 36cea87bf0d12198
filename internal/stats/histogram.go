package stats

import "sort"

// Histogram is an equi-depth histogram over a numeric sample. Bucket i
// spans (Bounds[i], Bounds[i+1]]; each bucket holds ~1/len(depths) of the
// sample mass. Equi-depth (rather than equi-width) keeps estimates stable
// under the skewed value distributions XML benchmarks produce.
type Histogram struct {
	Bounds []float64 // len = buckets+1, ascending
	Depths []float64 // fraction of mass per bucket, sums to 1
	N      int       // sample size the histogram was built from
}

// NewEquiDepth builds an equi-depth histogram with at most maxBuckets
// buckets from the sample. Returns nil for an empty sample.
func NewEquiDepth(sample []float64, maxBuckets int) *Histogram {
	if len(sample) == 0 {
		return nil
	}
	sorted := make([]float64, len(sample))
	copy(sorted, sample)
	sort.Float64s(sorted)

	b := maxBuckets
	if b > len(sorted) {
		b = len(sorted)
	}
	if b < 1 {
		b = 1
	}
	h := &Histogram{N: len(sorted)}
	h.Bounds = append(h.Bounds, sorted[0])
	per := float64(len(sorted)) / float64(b)
	prevIdx := 0
	for i := 1; i <= b; i++ {
		idx := int(per*float64(i)) - 1
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		if idx < prevIdx {
			idx = prevIdx
		}
		h.Bounds = append(h.Bounds, sorted[idx])
		h.Depths = append(h.Depths, float64(idx-prevIdx+1)/float64(len(sorted)))
		prevIdx = idx + 1
	}
	// Normalize drift from integer truncation.
	var sum float64
	for _, d := range h.Depths {
		sum += d
	}
	if sum > 0 {
		for i := range h.Depths {
			h.Depths[i] /= sum
		}
	}
	return h
}

// FractionBelow estimates the fraction of values strictly less than v,
// interpolating linearly within the containing bucket.
func (h *Histogram) FractionBelow(v float64) float64 {
	if h == nil || len(h.Bounds) < 2 {
		return 0.5
	}
	if v <= h.Bounds[0] {
		return 0
	}
	last := h.Bounds[len(h.Bounds)-1]
	if v > last {
		return 1
	}
	var acc float64
	for i := 0; i < len(h.Depths); i++ {
		lo, hi := h.Bounds[i], h.Bounds[i+1]
		if v > hi {
			acc += h.Depths[i]
			continue
		}
		if hi > lo {
			acc += h.Depths[i] * (v - lo) / (hi - lo)
		}
		break
	}
	if acc > 1 {
		acc = 1
	}
	return acc
}

// FractionEqual estimates the fraction of values equal to v: the mass of
// the containing bucket divided by an assumed uniform spread, bounded by
// the bucket mass.
func (h *Histogram) FractionEqual(v float64) float64 {
	if h == nil || len(h.Bounds) < 2 {
		return 0
	}
	if v < h.Bounds[0] || v > h.Bounds[len(h.Bounds)-1] {
		return 0
	}
	for i := 0; i < len(h.Depths); i++ {
		lo, hi := h.Bounds[i], h.Bounds[i+1]
		if v >= lo && v <= hi {
			// Assume ~N/buckets distinct values per bucket.
			perBucket := float64(h.N) / float64(len(h.Depths))
			if perBucket < 1 {
				perBucket = 1
			}
			return h.Depths[i] / perBucket
		}
	}
	return 0
}
