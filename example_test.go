package stburst_test

import (
	"context"
	"fmt"
	"log"

	"stburst"
)

// build a deterministic demo collection: a two-city burst of "storm"
// during weeks 3-4, far from a quiet third city.
func demo() *stburst.Collection {
	streams := []stburst.StreamInfo{
		{Name: "miami", Location: stburst.Point{X: 0, Y: 0}},
		{Name: "havana", Location: stburst.Point{X: 2, Y: -2}},
		{Name: "oslo", Location: stburst.Point{X: 70, Y: 90}},
	}
	c := stburst.NewCollection(streams, 8)
	add := func(s, w int, text string) {
		if _, err := c.AddText(s, w, text); err != nil {
			log.Fatal(err)
		}
	}
	for w := 0; w < 8; w++ {
		add(0, w, "harbor traffic and fishing report")
		add(1, w, "harbor traffic and baseball scores")
		add(2, w, "northern lights viewing forecast")
	}
	for w := 3; w <= 4; w++ {
		for i := 0; i < 3; i++ {
			add(0, w, "storm surge warnings as the storm strengthens")
			add(1, w, "storm damages coastal roads")
		}
	}
	return c
}

func ExampleCollection_RegionalPatterns() {
	c := demo()
	top, ok := stburst.Best(c.RegionalPatterns("storm", nil))
	if !ok {
		log.Fatal("no pattern")
	}
	fmt.Printf("weeks [%d,%d], streams %v\n", top.Start, top.End, top.Streams)
	// Output: weeks [3,4], streams [0 1]
}

func ExampleCollection_CombinatorialPatterns() {
	c := demo()
	ps := c.CombinatorialPatterns("storm", nil)
	fmt.Printf("weeks [%d,%d], streams %v\n", ps[0].Start, ps[0].End, ps[0].Streams)
	// Output: weeks [3,4], streams [0 1]
}

func ExampleStore_Query() {
	c := demo()
	store, err := c.MineStore(context.Background(), nil, stburst.KindRegional)
	if err != nil {
		log.Fatal(err)
	}
	page, err := store.Query(context.Background(), stburst.Query{Text: "storm surge", K: 2})
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range page.Hits {
		fmt.Printf("%s week %d\n", h.Stream, h.Doc.Time)
	}
	// Output:
	// miami week 3
	// miami week 3
}

func ExampleNewRegionalMiner() {
	points := []stburst.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}
	m := stburst.NewRegionalMiner(points, nil)
	for week := 0; week < 6; week++ {
		freq := []float64{1, 1}
		if week == 3 {
			freq = []float64{9, 11}
		}
		if err := m.Push(freq); err != nil {
			log.Fatal(err)
		}
	}
	top, _ := stburst.Best(m.Windows())
	fmt.Printf("burst at week %d covering %d streams\n", top.Start, len(top.Streams))
	// Output: burst at week 3 covering 2 streams
}
