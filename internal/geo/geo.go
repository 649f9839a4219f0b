// Package geo provides the planar and geographic primitives used by the
// spatiotemporal pattern miners: 2-D points and axis-oriented rectangles
// (the region shape STLocal mines, §4 of the paper), great-circle and
// ellipsoidal geodesic distances, and classical multidimensional scaling,
// which the paper uses to project document-stream locations onto the 2-D
// plane from their pairwise geographic distances (§6.1).
package geo

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Point is a location on the 2-D map onto which streams are projected.
type Point struct {
	X, Y float64
}

// Rect is an axis-oriented rectangle on the 2-D map, closed on all sides.
// STLocal restricts bursty regions to this shape to keep the mining
// problem polynomial (§4). The JSON tags define the wire form of the
// /v1 query API's region field.
type Rect struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

// ParseRect parses the textual "minX,minY,maxX,maxY" rectangle form
// shared by the CLI flags and the HTTP query parameters, rejecting
// malformed and inverted input.
func ParseRect(raw string) (Rect, error) {
	parts := strings.Split(raw, ",")
	if len(parts) != 4 {
		return Rect{}, fmt.Errorf("region must be minX,minY,maxX,maxY, got %q", raw)
	}
	var vals [4]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return Rect{}, fmt.Errorf("region coordinate %q is not a number", p)
		}
		vals[i] = v
	}
	r := Rect{MinX: vals[0], MinY: vals[1], MaxX: vals[2], MaxY: vals[3]}
	if r.MinX > r.MaxX || r.MinY > r.MaxY {
		return Rect{}, fmt.Errorf("region %q is inverted", raw)
	}
	return r, nil
}

// Contains reports whether p lies inside the closed rectangle.
func (r Rect) Contains(p Point) bool {
	return r.MinX <= p.X && p.X <= r.MaxX && r.MinY <= p.Y && p.Y <= r.MaxY
}

// Intersects reports whether two closed rectangles share any point.
func (r Rect) Intersects(o Rect) bool {
	return r.MinX <= o.MaxX && o.MinX <= r.MaxX && r.MinY <= o.MaxY && o.MinY <= r.MaxY
}

// ContainsRect reports whether o is completely inside r (the spatial half
// of the sub-window relation in Definition 2 of the paper).
func (r Rect) ContainsRect(o Rect) bool {
	return r.MinX <= o.MinX && o.MaxX <= r.MaxX && r.MinY <= o.MinY && o.MaxY <= r.MaxY
}

// Width returns the extent of the rectangle along the X axis.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the extent of the rectangle along the Y axis.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// String formats the rectangle for diagnostics.
func (r Rect) String() string {
	return fmt.Sprintf("[%.3f,%.3f]x[%.3f,%.3f]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// MBR returns the minimum bounding rectangle of the given points and
// reports whether the point set is non-empty. Table 1 of the paper uses
// the MBR of an STComb pattern's streams to show how spatially spread a
// combinatorial pattern is.
func MBR(points []Point) (Rect, bool) {
	if len(points) == 0 {
		return Rect{}, false
	}
	r := Rect{MinX: points[0].X, MaxX: points[0].X, MinY: points[0].Y, MaxY: points[0].Y}
	for _, p := range points[1:] {
		r.MinX = math.Min(r.MinX, p.X)
		r.MaxX = math.Max(r.MaxX, p.X)
		r.MinY = math.Min(r.MinY, p.Y)
		r.MaxY = math.Max(r.MaxY, p.Y)
	}
	return r, true
}

// Dist returns the Euclidean distance between two planar points.
func Dist(a, b Point) float64 {
	return math.Hypot(a.X-b.X, a.Y-b.Y)
}

// LatLon is a geographic coordinate in degrees.
type LatLon struct {
	Lat, Lon float64
}

// EarthRadiusKm is the mean Earth radius used by Haversine.
const EarthRadiusKm = 6371.0088

// Haversine returns the great-circle distance between two geographic
// coordinates in kilometers.
func Haversine(a, b LatLon) float64 {
	const rad = math.Pi / 180
	la1, lo1 := a.Lat*rad, a.Lon*rad
	la2, lo2 := b.Lat*rad, b.Lon*rad
	sinLat := math.Sin((la2 - la1) / 2)
	sinLon := math.Sin((lo2 - lo1) / 2)
	h := sinLat*sinLat + math.Cos(la1)*math.Cos(la2)*sinLon*sinLon
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}
