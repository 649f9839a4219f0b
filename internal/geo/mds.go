package geo

import (
	"errors"
	"math"
	"math/rand"
)

// MDS projects n objects with known pairwise distances onto the 2-D plane
// using classical (Torgerson) multidimensional scaling: the Gram matrix
// B = -1/2 · J·D²·J is formed by double-centering the squared distance
// matrix and its two leading eigenpairs, found by power iteration with
// deflation, give the embedding coordinates. The paper uses exactly this
// projection to place the Topix news sources on the 2-D map from their
// pairwise geographic distances (§6.1).
//
// dist must be a symmetric n×n matrix with a zero diagonal. rng drives the
// power-iteration starting vectors so results are deterministic for a
// seeded source.
func MDS(dist [][]float64, rng *rand.Rand) ([]Point, error) {
	n := len(dist)
	if n == 0 {
		return nil, errors.New("geo: MDS on empty distance matrix")
	}
	for i, row := range dist {
		if len(row) != n {
			return nil, errors.New("geo: MDS distance matrix is not square")
		}
		if dist[i][i] != 0 {
			return nil, errors.New("geo: MDS distance matrix has non-zero diagonal")
		}
	}
	if n == 1 {
		return []Point{{}}, nil
	}

	// Double-center the squared distances: B = -1/2 J D² J.
	sq := make([][]float64, n)
	rowMean := make([]float64, n)
	var grand float64
	for i := range sq {
		sq[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			d := dist[i][j]
			sq[i][j] = d * d
			rowMean[i] += sq[i][j]
		}
		rowMean[i] /= float64(n)
		grand += rowMean[i]
	}
	grand /= float64(n)
	b := make([][]float64, n)
	for i := range b {
		b[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			b[i][j] = -0.5 * (sq[i][j] - rowMean[i] - rowMean[j] + grand)
		}
	}

	pts := make([]Point, n)
	for dim := 0; dim < 2; dim++ {
		val, vec := powerIteration(b, rng)
		if val <= 1e-12 {
			break // remaining structure is degenerate; leave axis at zero
		}
		scale := math.Sqrt(val)
		for i := range pts {
			if dim == 0 {
				pts[i].X = scale * vec[i]
			} else {
				pts[i].Y = scale * vec[i]
			}
		}
		// Deflate: B ← B − λ v vᵀ.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[i][j] -= val * vec[i] * vec[j]
			}
		}
	}
	return pts, nil
}

// powerIteration returns the dominant eigenvalue and unit eigenvector of
// the symmetric matrix m.
func powerIteration(m [][]float64, rng *rand.Rand) (float64, []float64) {
	n := len(m)
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	normalize(v)
	w := make([]float64, n)
	var val float64
	for iter := 0; iter < 500; iter++ {
		matVec(m, v, w)
		nw := norm(w)
		if nw < 1e-300 {
			return 0, v
		}
		for i := range w {
			w[i] /= nw
		}
		// Rayleigh quotient for the eigenvalue estimate.
		matVec(m, w, v)
		newVal := dot(w, v)
		copy(v, w)
		normalize(v)
		if math.Abs(newVal-val) <= 1e-12*math.Max(1, math.Abs(newVal)) {
			return newVal, v
		}
		val = newVal
	}
	return val, v
}

func matVec(m [][]float64, v, out []float64) {
	for i, row := range m {
		var s float64
		for j, x := range row {
			s += x * v[j]
		}
		out[i] = s
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm(v []float64) float64 { return math.Sqrt(dot(v, v)) }

func normalize(v []float64) {
	n := norm(v)
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}

// DistanceMatrix builds the symmetric pairwise-distance matrix of the
// given geographic coordinates under the provided metric (Haversine,
// say).
func DistanceMatrix(coords []LatLon, metric func(a, b LatLon) float64) [][]float64 {
	n := len(coords)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := metric(coords[i], coords[j])
			m[i][j] = d
			m[j][i] = d
		}
	}
	return m
}
