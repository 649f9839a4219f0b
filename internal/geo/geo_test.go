package geo

import (
	"math"
	"math/rand"
	"testing"
)

func TestRectContains(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 5}
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{5, 2}, true},
		{Point{0, 0}, true},  // corner is inside (closed)
		{Point{10, 5}, true}, // opposite corner
		{Point{10.1, 5}, false},
		{Point{-0.1, 2}, false},
		{Point{5, 5.01}, false},
	}
	for _, tc := range cases {
		if got := r.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{0, 0, 4, 4}
	cases := []struct {
		b    Rect
		want bool
	}{
		{Rect{2, 2, 6, 6}, true},
		{Rect{4, 4, 8, 8}, true}, // touch at corner
		{Rect{5, 5, 8, 8}, false},
		{Rect{-3, -3, -1, -1}, false},
		{Rect{1, 1, 2, 2}, true}, // nested
	}
	for _, tc := range cases {
		if got := a.Intersects(tc.b); got != tc.want {
			t.Errorf("Intersects(%v) = %v, want %v", tc.b, got, tc.want)
		}
		if got := tc.b.Intersects(a); got != tc.want {
			t.Errorf("Intersects symmetric (%v) = %v, want %v", tc.b, got, tc.want)
		}
	}
}

func TestRectContainsRect(t *testing.T) {
	outer := Rect{0, 0, 10, 10}
	if !outer.ContainsRect(Rect{2, 2, 8, 8}) {
		t.Error("nested rect should be contained")
	}
	if !outer.ContainsRect(outer) {
		t.Error("rect should contain itself")
	}
	if outer.ContainsRect(Rect{2, 2, 11, 8}) {
		t.Error("overflowing rect should not be contained")
	}
}

func TestRectDims(t *testing.T) {
	r := Rect{1, 2, 5, 10}
	if r.Width() != 4 || r.Height() != 8 {
		t.Fatalf("dims: w=%v h=%v", r.Width(), r.Height())
	}
	if s := r.String(); s == "" {
		t.Fatal("String should be non-empty")
	}
}

func TestMBR(t *testing.T) {
	if _, ok := MBR(nil); ok {
		t.Fatal("MBR of empty set should report false")
	}
	pts := []Point{{1, 5}, {-2, 3}, {4, -1}}
	r, ok := MBR(pts)
	if !ok {
		t.Fatal("expected ok")
	}
	want := Rect{-2, -1, 4, 5}
	if r != want {
		t.Fatalf("MBR = %v, want %v", r, want)
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Fatalf("MBR %v does not contain %v", r, p)
		}
	}
}

func TestDist(t *testing.T) {
	if got := Dist(Point{0, 0}, Point{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Dist = %v, want 5", got)
	}
}

func TestHaversineKnownDistances(t *testing.T) {
	london := LatLon{51.5074, -0.1278}
	paris := LatLon{48.8566, 2.3522}
	if d := Haversine(london, paris); math.Abs(d-343.5) > 3 {
		t.Fatalf("London-Paris = %v km, want ~343.5", d)
	}
	// One degree of longitude at the equator.
	if d := Haversine(LatLon{0, 0}, LatLon{0, 1}); math.Abs(d-111.19) > 0.5 {
		t.Fatalf("1 deg at equator = %v km, want ~111.19", d)
	}
	if d := Haversine(london, london); d != 0 {
		t.Fatalf("identical points = %v, want 0", d)
	}
	// Antipodal points: half the Earth's circumference.
	if d := Haversine(LatLon{0, 0}, LatLon{0, 180}); math.Abs(d-math.Pi*EarthRadiusKm) > 1 {
		t.Fatalf("antipodal = %v km, want ~%v", d, math.Pi*EarthRadiusKm)
	}
}

func TestHaversineSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 100; i++ {
		a := LatLon{rng.Float64()*180 - 90, rng.Float64()*360 - 180}
		b := LatLon{rng.Float64()*180 - 90, rng.Float64()*360 - 180}
		if d1, d2 := Haversine(a, b), Haversine(b, a); math.Abs(d1-d2) > 1e-9 {
			t.Fatalf("asymmetric: %v vs %v", d1, d2)
		}
	}
}

func TestVincentyAgreesWithHaversine(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 200; i++ {
		a := LatLon{rng.Float64()*160 - 80, rng.Float64()*360 - 180}
		b := LatLon{rng.Float64()*160 - 80, rng.Float64()*360 - 180}
		dv := Vincenty(a, b)
		dh := Haversine(a, b)
		if dh < 1 {
			continue // relative error unstable at tiny distances
		}
		if rel := math.Abs(dv-dh) / dh; rel > 0.006 {
			t.Fatalf("Vincenty %v vs Haversine %v for %v-%v (rel %v)", dv, dh, a, b, rel)
		}
	}
}

func TestVincentyKnown(t *testing.T) {
	// Flinders Peak to Buninyong, the classic Vincenty test pair:
	// 54972.271 m.
	fl := LatLon{-37.95103342, 144.42486789}
	bu := LatLon{-37.65282114, 143.92649553}
	if d := Vincenty(fl, bu); math.Abs(d-54.972271) > 0.01 {
		t.Fatalf("Flinders-Buninyong = %v km, want 54.972", d)
	}
	if d := Vincenty(fl, fl); d != 0 {
		t.Fatalf("identical points = %v, want 0", d)
	}
}

func TestDistanceMatrix(t *testing.T) {
	coords := []LatLon{{0, 0}, {0, 1}, {1, 0}}
	m := DistanceMatrix(coords, Haversine)
	if len(m) != 3 {
		t.Fatalf("size %d, want 3", len(m))
	}
	for i := range m {
		if m[i][i] != 0 {
			t.Fatalf("diagonal m[%d][%d] = %v", i, i, m[i][i])
		}
		for j := range m {
			if m[i][j] != m[j][i] {
				t.Fatalf("asymmetry at (%d,%d)", i, j)
			}
		}
	}
	if m[0][1] <= 0 {
		t.Fatal("off-diagonal distance should be positive")
	}
}

func TestMDSErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	if _, err := MDS(nil, rng); err == nil {
		t.Fatal("empty matrix should error")
	}
	if _, err := MDS([][]float64{{0, 1}, {1}}, rng); err == nil {
		t.Fatal("ragged matrix should error")
	}
	if _, err := MDS([][]float64{{1}}, rng); err == nil {
		t.Fatal("non-zero diagonal should error")
	}
}

func TestMDSSinglePoint(t *testing.T) {
	pts, err := MDS([][]float64{{0}}, rand.New(rand.NewSource(24)))
	if err != nil || len(pts) != 1 {
		t.Fatalf("got %v, %v", pts, err)
	}
}

// MDS must reconstruct a planar configuration up to rotation/reflection,
// i.e. all pairwise distances are preserved.
func TestMDSRecoversPlanarConfiguration(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(20)
		orig := make([]Point, n)
		for i := range orig {
			orig[i] = Point{rng.Float64() * 100, rng.Float64() * 100}
		}
		dist := make([][]float64, n)
		for i := range dist {
			dist[i] = make([]float64, n)
			for j := range dist[i] {
				dist[i][j] = Dist(orig[i], orig[j])
			}
		}
		got, err := MDS(dist, rng)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				want := dist[i][j]
				have := Dist(got[i], got[j])
				if math.Abs(want-have) > 1e-5*math.Max(1, want) {
					t.Fatalf("trial %d: distance (%d,%d) = %v, want %v", trial, i, j, have, want)
				}
			}
		}
	}
}

// MDS on geographic (spherical) distances cannot be exact in the plane but
// must preserve the large-scale ordering of distances: far pairs must map
// farther than near pairs by a clear margin. This mirrors the paper's use
// of MDS on country distances.
func TestMDSGeographicMonotonicity(t *testing.T) {
	coords := []LatLon{
		{51.5, -0.1},   // London
		{48.9, 2.4},    // Paris
		{40.7, -74.0},  // New York
		{35.7, 139.7},  // Tokyo
		{-33.9, 151.2}, // Sydney
		{55.8, 37.6},   // Moscow
	}
	rng := rand.New(rand.NewSource(26))
	pts, err := MDS(DistanceMatrix(coords, Haversine), rng)
	if err != nil {
		t.Fatal(err)
	}
	lonParis := Dist(pts[0], pts[1])
	lonTokyo := Dist(pts[0], pts[3])
	lonSydney := Dist(pts[0], pts[4])
	if lonParis >= lonTokyo {
		t.Fatalf("London-Paris (%v) should embed closer than London-Tokyo (%v)", lonParis, lonTokyo)
	}
	if lonParis >= lonSydney {
		t.Fatalf("London-Paris (%v) should embed closer than London-Sydney (%v)", lonParis, lonSydney)
	}
}

func TestMDSDeterministicForSeed(t *testing.T) {
	coords := []LatLon{{0, 0}, {10, 10}, {20, -5}, {-30, 60}}
	d := DistanceMatrix(coords, Haversine)
	a, err := MDS(d, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := MDS(d, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic embedding: %v vs %v", a[i], b[i])
		}
	}
}

func BenchmarkMDS181(b *testing.B) {
	rng := rand.New(rand.NewSource(27))
	coords := make([]LatLon, 181)
	for i := range coords {
		coords[i] = LatLon{rng.Float64()*160 - 80, rng.Float64()*360 - 180}
	}
	d := DistanceMatrix(coords, Haversine)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MDS(d, rand.New(rand.NewSource(1))); err != nil {
			b.Fatal(err)
		}
	}
}

func TestParseRect(t *testing.T) {
	r, err := ParseRect(" -1, 2.5 ,3,4 ")
	if err != nil || r != (Rect{MinX: -1, MinY: 2.5, MaxX: 3, MaxY: 4}) {
		t.Fatalf("ParseRect = %v, %v", r, err)
	}
	if r, err := ParseRect("5,5,5,5"); err != nil || r != (Rect{5, 5, 5, 5}) {
		t.Fatalf("degenerate rect rejected: %v, %v", r, err)
	}
	for _, raw := range []string{"", "1,2,3", "1,2,3,4,5", "a,b,c,d", "5,0,1,1", "0,5,1,1"} {
		if _, err := ParseRect(raw); err == nil {
			t.Errorf("ParseRect(%q) accepted", raw)
		}
	}
}
