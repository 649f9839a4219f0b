package geo

import "math"

// WGS-84 ellipsoid constants used by Vincenty.
const (
	wgs84A = 6378.137          // semi-major axis, km
	wgs84B = 6356.7523142      // semi-minor axis, km
	wgs84F = 1 / 298.257223563 // flattening
)

// Vincenty returns the geodesic distance in kilometers between two
// geographic coordinates on the WGS-84 ellipsoid, using Vincenty's inverse
// formula (the paper's reference [30]). It falls back to Haversine for
// the rare nearly-antipodal pairs on which the iteration fails to
// converge.
func Vincenty(p, q LatLon) float64 {
	const rad = math.Pi / 180
	if p == q {
		return 0
	}
	L := (q.Lon - p.Lon) * rad
	u1 := math.Atan((1 - wgs84F) * math.Tan(p.Lat*rad))
	u2 := math.Atan((1 - wgs84F) * math.Tan(q.Lat*rad))
	sinU1, cosU1 := math.Sincos(u1)
	sinU2, cosU2 := math.Sincos(u2)

	lambda := L
	var sinSigma, cosSigma, sigma, cosSqAlpha, cos2SigmaM float64
	for i := 0; i < 200; i++ {
		sinLambda, cosLambda := math.Sincos(lambda)
		sinSigma = math.Sqrt(math.Pow(cosU2*sinLambda, 2) +
			math.Pow(cosU1*sinU2-sinU1*cosU2*cosLambda, 2))
		if sinSigma == 0 {
			return 0 // coincident points
		}
		cosSigma = sinU1*sinU2 + cosU1*cosU2*cosLambda
		sigma = math.Atan2(sinSigma, cosSigma)
		sinAlpha := cosU1 * cosU2 * sinLambda / sinSigma
		cosSqAlpha = 1 - sinAlpha*sinAlpha
		if cosSqAlpha == 0 {
			cos2SigmaM = 0 // equatorial line
		} else {
			cos2SigmaM = cosSigma - 2*sinU1*sinU2/cosSqAlpha
		}
		c := wgs84F / 16 * cosSqAlpha * (4 + wgs84F*(4-3*cosSqAlpha))
		prev := lambda
		lambda = L + (1-c)*wgs84F*sinAlpha*
			(sigma+c*sinSigma*(cos2SigmaM+c*cosSigma*(-1+2*cos2SigmaM*cos2SigmaM)))
		if math.Abs(lambda-prev) < 1e-12 {
			uSq := cosSqAlpha * (wgs84A*wgs84A - wgs84B*wgs84B) / (wgs84B * wgs84B)
			a := 1 + uSq/16384*(4096+uSq*(-768+uSq*(320-175*uSq)))
			bb := uSq / 1024 * (256 + uSq*(-128+uSq*(74-47*uSq)))
			deltaSigma := bb * sinSigma * (cos2SigmaM + bb/4*
				(cosSigma*(-1+2*cos2SigmaM*cos2SigmaM)-
					bb/6*cos2SigmaM*(-3+4*sinSigma*sinSigma)*(-3+4*cos2SigmaM*cos2SigmaM)))
			return wgs84B * a * (sigma - deltaSigma)
		}
	}
	return Haversine(p, q)
}
