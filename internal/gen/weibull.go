// Package gen implements the paper's data generation machinery
// (Appendix B): the Weibull burst envelopes, the exponential background
// frequencies, the distGen and randGen spatiotemporal pattern generators,
// and a synthetic Topix-like corpus (§6.1) with 181 country streams,
// a weekly Sep-08..Jul-09 timeline, and the 18 Major Events of Table 9
// injected with ground-truth relevance labels.
package gen

import "math"

// WeibullPDF evaluates the Weibull density of Eq. 12 at x for shape k and
// scale c. It is 0 for x < 0.
func WeibullPDF(x, c, k float64) float64 {
	if x < 0 {
		return 0
	}
	if x == 0 {
		if k == 1 {
			return 1 / c
		}
		if k < 1 {
			return math.Inf(1)
		}
		return 0
	}
	r := x / c
	return k / c * math.Pow(r, k-1) * math.Exp(-math.Pow(r, k))
}

// WeibullEnvelope samples the density at timestamps 1..n and rescales so
// the curve peaks at exactly peak — the paper's recipe for injecting an
// event's frequency lift: "we can easily set the frequency P at which the
// curve peeks to any given value v, by simply multiplying all the values
// in the sequence with v/m" where m is the density's maximum.
func WeibullEnvelope(n int, c, k, peak float64) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	maxVal := 0.0
	for i := 0; i < n; i++ {
		out[i] = WeibullPDF(float64(i+1), c, k)
		if out[i] > maxVal {
			maxVal = out[i]
		}
	}
	if maxVal <= 0 {
		return out
	}
	scale := peak / maxVal
	for i := range out {
		out[i] *= scale
	}
	return out
}
