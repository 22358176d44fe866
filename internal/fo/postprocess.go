package fo

// Post-processing of frequency-oracle estimates. Raw FO estimates are
// unbiased but unconstrained: elements may be negative or exceed 1 and the
// vector need not sum to 1. Post-processing (free under DP by the
// post-processing theorem) projects estimates back onto the simplex.
// Norm-Sub is the standard choice (Wang et al., "Locally Differentially
// Private Protocols for Frequency Estimation" follow-ups): clip negatives
// to zero and shift the positives by a common delta so the total is 1.

// PostProcess names an estimate post-processing method.
type PostProcess int

const (
	// PostNone leaves the unbiased estimate untouched.
	PostNone PostProcess = iota
	// PostClip clamps each element into [0, 1] independently (biased,
	// but never re-distributes mass).
	PostClip
	// PostNormSub clips negatives and uniformly subtracts/adds mass
	// across the remaining positive elements until the vector sums to 1
	// (the standard "Norm-Sub" simplex projection).
	PostNormSub
)

// String returns the method name.
func (p PostProcess) String() string {
	switch p {
	case PostNone:
		return "none"
	case PostClip:
		return "clip"
	case PostNormSub:
		return "norm-sub"
	default:
		return "unknown"
	}
}

// Apply returns est post-processed into new storage and leaves est
// untouched, so it is safe on an immutable release.
func (p PostProcess) Apply(est []float64) []float64 {
	out := append([]float64(nil), est...)
	switch p {
	case PostClip:
		for k, v := range out {
			if v < 0 {
				out[k] = 0
			} else if v > 1 {
				out[k] = 1
			}
		}
	case PostNormSub:
		normSub(out)
	}
	return out
}

// normSub projects est onto the probability simplex: iteratively clip
// negatives to zero and spread the deficit/excess uniformly over the
// currently-positive support until the vector sums to one.
func normSub(est []float64) {
	d := len(est)
	if d == 0 {
		return
	}
	const maxIter = 64
	for iter := 0; iter < maxIter; iter++ {
		sum := 0.0
		pos := 0
		for _, v := range est {
			if v > 0 {
				sum += v
				pos++
			}
		}
		if pos == 0 {
			// Degenerate: everything clipped; fall back to uniform.
			u := 1.0 / float64(d)
			for k := range est {
				est[k] = u
			}
			return
		}
		delta := (1 - sum) / float64(pos)
		changed := false
		for k, v := range est {
			switch {
			case v < 0:
				est[k] = 0
				changed = true
			case v > 0:
				est[k] = v + delta
				if est[k] < 0 {
					changed = true
				}
			}
		}
		if !changed && abs(sumOf(est)-1) < 1e-12 {
			return
		}
	}
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
