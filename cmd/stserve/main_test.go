package main

import (
	"slices"
	"strings"
	"testing"

	"stburst"
)

// TestMethodKinds: -method resolves to the kinds loadOrMine mines —
// none (every kind) for "all", one kind for each of its two names — and
// anything else, "any" included, is refused with a message naming
// exactly the accepted values.
func TestMethodKinds(t *testing.T) {
	const accepted = "want stlocal/regional, stcomb/combinatorial, tb/temporal or all"
	for _, tc := range []struct {
		method string
		want   []stburst.Kind
		bad    bool
	}{
		{method: "all"},
		{method: "stlocal", want: []stburst.Kind{stburst.KindRegional}},
		{method: "regional", want: []stburst.Kind{stburst.KindRegional}},
		{method: "stcomb", want: []stburst.Kind{stburst.KindCombinatorial}},
		{method: "combinatorial", want: []stburst.Kind{stburst.KindCombinatorial}},
		{method: "tb", want: []stburst.Kind{stburst.KindTemporal}},
		{method: "temporal", want: []stburst.Kind{stburst.KindTemporal}},
		{method: "any", bad: true},
		{method: "bogus", bad: true},
	} {
		kinds, err := methodKinds(tc.method)
		if tc.bad {
			if err == nil || !strings.Contains(err.Error(), accepted) || !strings.Contains(err.Error(), tc.method) {
				t.Errorf("methodKinds(%q) = %v, %v, want an error naming it and %q", tc.method, kinds, err, accepted)
			}
			continue
		}
		if err != nil || !slices.Equal(kinds, tc.want) {
			t.Errorf("methodKinds(%q) = %v, %v, want %v", tc.method, kinds, err, tc.want)
		}
	}
}
