package gen

import (
	"fmt"
	"math/rand"

	"stburst/internal/geo"
	"stburst/internal/stream"
)

// Country is one news source location of the Topix-like world: the paper's
// corpus draws articles "from local news sources from 181 different
// countries".
type Country struct {
	Name string
	Geo  geo.LatLon
}

// Countries is the fixed 181-country world used by the synthetic Topix
// corpus. Coordinates are approximate country centroids/capitals; only
// relative geography matters for the miners.
var Countries = []Country{
	{"United States", geo.LatLon{Lat: 38.9, Lon: -77.0}},
	{"Canada", geo.LatLon{Lat: 45.4, Lon: -75.7}},
	{"Mexico", geo.LatLon{Lat: 19.4, Lon: -99.1}},
	{"Guatemala", geo.LatLon{Lat: 14.6, Lon: -90.5}},
	{"Belize", geo.LatLon{Lat: 17.3, Lon: -88.8}},
	{"Honduras", geo.LatLon{Lat: 14.1, Lon: -87.2}},
	{"El Salvador", geo.LatLon{Lat: 13.7, Lon: -89.2}},
	{"Nicaragua", geo.LatLon{Lat: 12.1, Lon: -86.3}},
	{"Costa Rica", geo.LatLon{Lat: 9.9, Lon: -84.1}},
	{"Panama", geo.LatLon{Lat: 9.0, Lon: -79.5}},
	{"Cuba", geo.LatLon{Lat: 23.1, Lon: -82.4}},
	{"Jamaica", geo.LatLon{Lat: 18.0, Lon: -76.8}},
	{"Haiti", geo.LatLon{Lat: 18.5, Lon: -72.3}},
	{"Dominican Republic", geo.LatLon{Lat: 18.5, Lon: -69.9}},
	{"Bahamas", geo.LatLon{Lat: 25.0, Lon: -77.4}},
	{"Barbados", geo.LatLon{Lat: 13.1, Lon: -59.6}},
	{"Trinidad and Tobago", geo.LatLon{Lat: 10.7, Lon: -61.5}},
	{"Colombia", geo.LatLon{Lat: 4.7, Lon: -74.1}},
	{"Venezuela", geo.LatLon{Lat: 10.5, Lon: -66.9}},
	{"Guyana", geo.LatLon{Lat: 6.8, Lon: -58.2}},
	{"Suriname", geo.LatLon{Lat: 5.9, Lon: -55.2}},
	{"Ecuador", geo.LatLon{Lat: -0.2, Lon: -78.5}},
	{"Peru", geo.LatLon{Lat: -12.0, Lon: -77.0}},
	{"Brazil", geo.LatLon{Lat: -15.8, Lon: -47.9}},
	{"Bolivia", geo.LatLon{Lat: -16.5, Lon: -68.2}},
	{"Paraguay", geo.LatLon{Lat: -25.3, Lon: -57.6}},
	{"Chile", geo.LatLon{Lat: -33.5, Lon: -70.7}},
	{"Argentina", geo.LatLon{Lat: -34.6, Lon: -58.4}},
	{"Uruguay", geo.LatLon{Lat: -34.9, Lon: -56.2}},
	{"Iceland", geo.LatLon{Lat: 64.1, Lon: -21.9}},
	{"Ireland", geo.LatLon{Lat: 53.3, Lon: -6.3}},
	{"United Kingdom", geo.LatLon{Lat: 51.5, Lon: -0.1}},
	{"Portugal", geo.LatLon{Lat: 38.7, Lon: -9.1}},
	{"Spain", geo.LatLon{Lat: 40.4, Lon: -3.7}},
	{"France", geo.LatLon{Lat: 48.9, Lon: 2.4}},
	{"Belgium", geo.LatLon{Lat: 50.9, Lon: 4.4}},
	{"Netherlands", geo.LatLon{Lat: 52.4, Lon: 4.9}},
	{"Luxembourg", geo.LatLon{Lat: 49.6, Lon: 6.1}},
	{"Germany", geo.LatLon{Lat: 52.5, Lon: 13.4}},
	{"Switzerland", geo.LatLon{Lat: 46.9, Lon: 7.4}},
	{"Austria", geo.LatLon{Lat: 48.2, Lon: 16.4}},
	{"Italy", geo.LatLon{Lat: 41.9, Lon: 12.5}},
	{"Malta", geo.LatLon{Lat: 35.9, Lon: 14.5}},
	{"Denmark", geo.LatLon{Lat: 55.7, Lon: 12.6}},
	{"Norway", geo.LatLon{Lat: 59.9, Lon: 10.8}},
	{"Sweden", geo.LatLon{Lat: 59.3, Lon: 18.1}},
	{"Finland", geo.LatLon{Lat: 60.2, Lon: 24.9}},
	{"Estonia", geo.LatLon{Lat: 59.4, Lon: 24.8}},
	{"Latvia", geo.LatLon{Lat: 56.9, Lon: 24.1}},
	{"Lithuania", geo.LatLon{Lat: 54.7, Lon: 25.3}},
	{"Poland", geo.LatLon{Lat: 52.2, Lon: 21.0}},
	{"Czech Republic", geo.LatLon{Lat: 50.1, Lon: 14.4}},
	{"Slovakia", geo.LatLon{Lat: 48.1, Lon: 17.1}},
	{"Hungary", geo.LatLon{Lat: 47.5, Lon: 19.1}},
	{"Slovenia", geo.LatLon{Lat: 46.1, Lon: 14.5}},
	{"Croatia", geo.LatLon{Lat: 45.8, Lon: 16.0}},
	{"Bosnia and Herzegovina", geo.LatLon{Lat: 43.9, Lon: 18.4}},
	{"Serbia", geo.LatLon{Lat: 44.8, Lon: 20.5}},
	{"Montenegro", geo.LatLon{Lat: 42.4, Lon: 19.3}},
	{"Albania", geo.LatLon{Lat: 41.3, Lon: 19.8}},
	{"North Macedonia", geo.LatLon{Lat: 42.0, Lon: 21.4}},
	{"Greece", geo.LatLon{Lat: 38.0, Lon: 23.7}},
	{"Bulgaria", geo.LatLon{Lat: 42.7, Lon: 23.3}},
	{"Romania", geo.LatLon{Lat: 44.4, Lon: 26.1}},
	{"Moldova", geo.LatLon{Lat: 47.0, Lon: 28.9}},
	{"Ukraine", geo.LatLon{Lat: 50.5, Lon: 30.5}},
	{"Belarus", geo.LatLon{Lat: 53.9, Lon: 27.6}},
	{"Russia", geo.LatLon{Lat: 55.8, Lon: 37.6}},
	{"Turkey", geo.LatLon{Lat: 39.9, Lon: 32.9}},
	{"Cyprus", geo.LatLon{Lat: 35.2, Lon: 33.4}},
	{"Georgia", geo.LatLon{Lat: 41.7, Lon: 44.8}},
	{"Armenia", geo.LatLon{Lat: 40.2, Lon: 44.5}},
	{"Azerbaijan", geo.LatLon{Lat: 40.4, Lon: 49.9}},
	{"Kazakhstan", geo.LatLon{Lat: 51.2, Lon: 71.4}},
	{"Uzbekistan", geo.LatLon{Lat: 41.3, Lon: 69.3}},
	{"Turkmenistan", geo.LatLon{Lat: 37.9, Lon: 58.4}},
	{"Kyrgyzstan", geo.LatLon{Lat: 42.9, Lon: 74.6}},
	{"Tajikistan", geo.LatLon{Lat: 38.6, Lon: 68.8}},
	{"Afghanistan", geo.LatLon{Lat: 34.5, Lon: 69.2}},
	{"Pakistan", geo.LatLon{Lat: 33.7, Lon: 73.1}},
	{"India", geo.LatLon{Lat: 28.6, Lon: 77.2}},
	{"Nepal", geo.LatLon{Lat: 27.7, Lon: 85.3}},
	{"Bhutan", geo.LatLon{Lat: 27.5, Lon: 89.6}},
	{"Bangladesh", geo.LatLon{Lat: 23.8, Lon: 90.4}},
	{"Sri Lanka", geo.LatLon{Lat: 6.9, Lon: 79.9}},
	{"Maldives", geo.LatLon{Lat: 4.2, Lon: 73.5}},
	{"Myanmar", geo.LatLon{Lat: 19.8, Lon: 96.1}},
	{"Thailand", geo.LatLon{Lat: 13.8, Lon: 100.5}},
	{"Laos", geo.LatLon{Lat: 17.97, Lon: 102.6}},
	{"Cambodia", geo.LatLon{Lat: 11.6, Lon: 104.9}},
	{"Vietnam", geo.LatLon{Lat: 21.0, Lon: 105.8}},
	{"Malaysia", geo.LatLon{Lat: 3.1, Lon: 101.7}},
	{"Singapore", geo.LatLon{Lat: 1.3, Lon: 103.8}},
	{"Indonesia", geo.LatLon{Lat: -6.2, Lon: 106.8}},
	{"Brunei", geo.LatLon{Lat: 4.9, Lon: 114.9}},
	{"Philippines", geo.LatLon{Lat: 14.6, Lon: 121.0}},
	{"China", geo.LatLon{Lat: 39.9, Lon: 116.4}},
	{"Mongolia", geo.LatLon{Lat: 47.9, Lon: 106.9}},
	{"North Korea", geo.LatLon{Lat: 39.0, Lon: 125.8}},
	{"South Korea", geo.LatLon{Lat: 37.6, Lon: 127.0}},
	{"Japan", geo.LatLon{Lat: 35.7, Lon: 139.7}},
	{"Taiwan", geo.LatLon{Lat: 25.0, Lon: 121.6}},
	{"Australia", geo.LatLon{Lat: -35.3, Lon: 149.1}},
	{"New Zealand", geo.LatLon{Lat: -41.3, Lon: 174.8}},
	{"Papua New Guinea", geo.LatLon{Lat: -9.4, Lon: 147.2}},
	{"Fiji", geo.LatLon{Lat: -18.1, Lon: 178.4}},
	{"Solomon Islands", geo.LatLon{Lat: -9.4, Lon: 160.0}},
	{"Vanuatu", geo.LatLon{Lat: -17.7, Lon: 168.3}},
	{"Samoa", geo.LatLon{Lat: -13.8, Lon: -171.8}},
	{"Tonga", geo.LatLon{Lat: -21.1, Lon: -175.2}},
	{"Morocco", geo.LatLon{Lat: 34.0, Lon: -6.8}},
	{"Algeria", geo.LatLon{Lat: 36.8, Lon: 3.1}},
	{"Tunisia", geo.LatLon{Lat: 36.8, Lon: 10.2}},
	{"Libya", geo.LatLon{Lat: 32.9, Lon: 13.2}},
	{"Egypt", geo.LatLon{Lat: 30.0, Lon: 31.2}},
	{"Sudan", geo.LatLon{Lat: 15.6, Lon: 32.5}},
	{"Mauritania", geo.LatLon{Lat: 18.1, Lon: -15.9}},
	{"Mali", geo.LatLon{Lat: 12.6, Lon: -8.0}},
	{"Niger", geo.LatLon{Lat: 13.5, Lon: 2.1}},
	{"Chad", geo.LatLon{Lat: 12.1, Lon: 15.0}},
	{"Senegal", geo.LatLon{Lat: 14.7, Lon: -17.5}},
	{"Gambia", geo.LatLon{Lat: 13.5, Lon: -16.6}},
	{"Guinea-Bissau", geo.LatLon{Lat: 11.9, Lon: -15.6}},
	{"Guinea", geo.LatLon{Lat: 9.6, Lon: -13.6}},
	{"Sierra Leone", geo.LatLon{Lat: 8.5, Lon: -13.2}},
	{"Liberia", geo.LatLon{Lat: 6.3, Lon: -10.8}},
	{"Ivory Coast", geo.LatLon{Lat: 6.8, Lon: -5.3}},
	{"Ghana", geo.LatLon{Lat: 5.6, Lon: -0.2}},
	{"Togo", geo.LatLon{Lat: 6.1, Lon: 1.2}},
	{"Benin", geo.LatLon{Lat: 6.5, Lon: 2.6}},
	{"Burkina Faso", geo.LatLon{Lat: 12.4, Lon: -1.5}},
	{"Nigeria", geo.LatLon{Lat: 9.1, Lon: 7.4}},
	{"Cameroon", geo.LatLon{Lat: 3.9, Lon: 11.5}},
	{"Central African Republic", geo.LatLon{Lat: 4.4, Lon: 18.6}},
	{"Equatorial Guinea", geo.LatLon{Lat: 3.8, Lon: 8.8}},
	{"Gabon", geo.LatLon{Lat: 0.4, Lon: 9.5}},
	{"Republic of the Congo", geo.LatLon{Lat: -4.3, Lon: 15.3}},
	{"DR Congo", geo.LatLon{Lat: -4.3, Lon: 15.3}},
	{"Uganda", geo.LatLon{Lat: 0.3, Lon: 32.6}},
	{"Kenya", geo.LatLon{Lat: -1.3, Lon: 36.8}},
	{"Tanzania", geo.LatLon{Lat: -6.8, Lon: 39.3}},
	{"Rwanda", geo.LatLon{Lat: -1.9, Lon: 30.1}},
	{"Burundi", geo.LatLon{Lat: -3.4, Lon: 29.4}},
	{"Ethiopia", geo.LatLon{Lat: 9.0, Lon: 38.7}},
	{"Eritrea", geo.LatLon{Lat: 15.3, Lon: 38.9}},
	{"Djibouti", geo.LatLon{Lat: 11.6, Lon: 43.1}},
	{"Somalia", geo.LatLon{Lat: 2.0, Lon: 45.3}},
	{"Zambia", geo.LatLon{Lat: -15.4, Lon: 28.3}},
	{"Malawi", geo.LatLon{Lat: -13.9, Lon: 33.8}},
	{"Mozambique", geo.LatLon{Lat: -25.9, Lon: 32.6}},
	{"Zimbabwe", geo.LatLon{Lat: -17.8, Lon: 31.0}},
	{"Botswana", geo.LatLon{Lat: -24.6, Lon: 25.9}},
	{"Namibia", geo.LatLon{Lat: -22.6, Lon: 17.1}},
	{"South Africa", geo.LatLon{Lat: -25.7, Lon: 28.2}},
	{"Lesotho", geo.LatLon{Lat: -29.3, Lon: 27.5}},
	{"Eswatini", geo.LatLon{Lat: -26.3, Lon: 31.1}},
	{"Angola", geo.LatLon{Lat: -8.8, Lon: 13.2}},
	{"Madagascar", geo.LatLon{Lat: -18.9, Lon: 47.5}},
	{"Mauritius", geo.LatLon{Lat: -20.2, Lon: 57.5}},
	{"Comoros", geo.LatLon{Lat: -11.7, Lon: 43.3}},
	{"Seychelles", geo.LatLon{Lat: -4.6, Lon: 55.5}},
	{"Israel", geo.LatLon{Lat: 31.8, Lon: 35.2}},
	{"Lebanon", geo.LatLon{Lat: 33.9, Lon: 35.5}},
	{"Syria", geo.LatLon{Lat: 33.5, Lon: 36.3}},
	{"Jordan", geo.LatLon{Lat: 31.9, Lon: 35.9}},
	{"Iraq", geo.LatLon{Lat: 33.3, Lon: 44.4}},
	{"Iran", geo.LatLon{Lat: 35.7, Lon: 51.4}},
	{"Saudi Arabia", geo.LatLon{Lat: 24.7, Lon: 46.7}},
	{"Kuwait", geo.LatLon{Lat: 29.4, Lon: 48.0}},
	{"Bahrain", geo.LatLon{Lat: 26.2, Lon: 50.6}},
	{"Qatar", geo.LatLon{Lat: 25.3, Lon: 51.5}},
	{"United Arab Emirates", geo.LatLon{Lat: 24.5, Lon: 54.4}},
	{"Oman", geo.LatLon{Lat: 23.6, Lon: 58.6}},
	{"Yemen", geo.LatLon{Lat: 15.4, Lon: 44.2}},
	{"Cape Verde", geo.LatLon{Lat: 14.9, Lon: -23.5}},
	{"Sao Tome and Principe", geo.LatLon{Lat: 0.3, Lon: 6.7}},
	{"Timor-Leste", geo.LatLon{Lat: -8.6, Lon: 125.6}},
	{"Kosovo", geo.LatLon{Lat: 42.7, Lon: 21.2}},
	{"Kiribati", geo.LatLon{Lat: 1.3, Lon: 173.0}},
	{"Nauru", geo.LatLon{Lat: -0.5, Lon: 166.9}},
	{"Tuvalu", geo.LatLon{Lat: -8.5, Lon: 179.2}},
}

// CountryIndex returns the index of a country by name, or -1.
func CountryIndex(name string) int {
	for i, c := range Countries {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// ProjectStreams places streams named after countries the way every
// topix corpus places them, generated or loaded from a file: each at its
// country's coordinates, with map locations projected by MDS over the
// countries' great-circle distances from a seed-1 RNG, as §6.1 of the
// paper does. The projection depends on the stream list alone, so a
// client holding the list reproduces every location.
func ProjectStreams(names []string) ([]stream.Info, error) {
	infos := make([]stream.Info, len(names))
	coords := make([]geo.LatLon, len(names))
	for i, name := range names {
		ci := CountryIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("gen: unknown country %q", name)
		}
		coords[i] = Countries[ci].Geo
		infos[i] = stream.Info{Name: name, Geo: coords[i]}
	}
	pts, err := geo.MDS(geo.DistanceMatrix(coords, geo.Haversine), rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, err
	}
	for i := range infos {
		infos[i].Location = pts[i]
	}
	return infos, nil
}
