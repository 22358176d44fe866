package fo

import (
	"math"

	"ldpids/internal/ldprand"
)

// The reference unary encoding: one byte per domain element, perturbed
// and counted the plain way. Perturb and the packed aggregator must agree
// with it bit for bit.

// UnpackBits expands a bit-packed unary payload into one byte per domain
// element.
func UnpackBits(packed []byte, d int) []byte {
	out := make([]byte, d)
	for k := range out {
		out[k] = packed[k>>3] >> (uint(k) & 7) & 1
	}
	return out
}

// perturbBytes is unary.Perturb written per element: the same draws, in
// the same order, each chosen bit stored as its own byte.
func perturbBytes(u *unary, v int, eps float64, src *ldprand.Source) []byte {
	p, q := u.probs(eps)
	bits := make([]byte, u.d)
	if src.Bernoulli(p) {
		bits[v] = 1
	}
	if logq := math.Log(1 - q); logq != 0 {
		for pos := 0; ; pos++ {
			ufl := src.Float64()
			if ufl >= 1 {
				ufl = math.Nextafter(1, 0)
			}
			if pos += int(math.Log(1-ufl) / logq); pos >= u.d-1 {
				break
			}
			k := pos
			if k >= v {
				k++
			}
			bits[k] = 1
		}
	}
	return bits
}

// naiveCounts counts, per domain element, the packed reports that set it.
func naiveCounts(reports []Report, d int) []int64 {
	counts := make([]int64, d)
	for _, r := range reports {
		for k, b := range UnpackBits(r.Packed, d) {
			counts[k] += int64(b)
		}
	}
	return counts
}

// naiveEstimate finishes naiveCounts with the scheme's (p, q), as the
// aggregators' shared finish does.
func naiveEstimate(u *unary, reports []Report, eps float64) []float64 {
	p, q := u.probs(eps)
	counts := naiveCounts(reports, u.d)
	est := make([]float64, u.d)
	finishInto(est, counts, len(reports), p, q)
	return est
}
