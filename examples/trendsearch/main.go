// Trendsearch: trend identification and bursty-document retrieval (§1.1
// of the paper). A product launch trends in two regions at different
// times; the example mines when and where each wave happened and then
// uses all three search-engine variants to retrieve launch coverage,
// showing how the temporal-only engine mixes the two waves while the
// spatial engines separate them.
package main

import (
	"context"
	"fmt"
	"log"

	"stburst"
)

func main() {
	streams := []stburst.StreamInfo{
		{Name: "san-francisco", Location: stburst.Point{X: 0, Y: 0}},
		{Name: "seattle", Location: stburst.Point{X: 2, Y: 5}},
		{Name: "berlin", Location: stburst.Point{X: 80, Y: 10}},
		{Name: "paris", Location: stburst.Point{X: 78, Y: 14}},
	}
	c := stburst.NewCollection(streams, 24)
	add := func(s, w int, text string) {
		if _, err := c.AddText(s, w, text); err != nil {
			log.Fatal(err)
		}
	}
	for w := 0; w < 24; w++ {
		for s := range streams {
			add(s, w, "city council news traffic housing")
		}
	}
	// US launch wave: weeks 4-6 on the west coast.
	for w := 4; w <= 6; w++ {
		for i := 0; i < 3; i++ {
			add(0, w, "gadget launch lines around the block, gadget reviews glowing")
			add(1, w, "gadget launch draws crowds downtown")
		}
	}
	// European launch wave: weeks 14-16.
	for w := 14; w <= 16; w++ {
		for i := 0; i < 3; i++ {
			add(2, w, "gadget launch hits stores, gadget demand strong")
			add(3, w, "gadget launch specials and gadget reviews")
		}
	}

	fmt.Println("== where and when did \"gadget\" trend? (STLocal) ==")
	for _, p := range c.RegionalPatterns("gadget", nil) {
		var names []string
		for _, s := range p.Streams {
			names = append(names, c.Stream(s).Name)
		}
		fmt.Printf("  weeks [%2d,%2d]  w-score %5.1f  %v\n", p.Start, p.End, p.Score, names)
	}

	fmt.Println("\n== top launch coverage per engine ==")
	show := func(name string, hits []stburst.Hit) {
		fmt.Printf("  %-9s:", name)
		for _, h := range hits {
			fmt.Printf(" %s/w%d", h.Stream, h.Doc.Time)
		}
		fmt.Println()
	}
	// One pass over a shared worker pool mines every kind into a store
	// that serves the three models side by side.
	ctx := context.Background()
	store, err := c.MineStore(ctx, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, kind := range store.Kinds() {
		page, err := store.Query(ctx, stburst.Query{Text: "gadget launch", Kind: kind, K: 4})
		if err != nil {
			log.Fatal(err)
		}
		show(kind.String(), page.Hits)
	}

	// A KindAny query fans out to every model and merges the rankings;
	// each hit names the model that scored it.
	fmt.Println("\n== kind \"any\": all models merged, hits attributed ==")
	merged, err := store.Query(ctx, stburst.Query{Text: "gadget launch", K: 6})
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range merged.Hits {
		fmt.Printf("  %-13s %s/w%-2d score %5.1f\n", h.Kind, h.Stream, h.Doc.Time, h.Score)
	}

	// Structured queries isolate each wave by asking where and when:
	// the US launch near the west coast at weeks 4-6, the European one
	// around Berlin/Paris at weeks 14-16.
	fmt.Println("\n== structured queries: one wave at a time (regional engine) ==")
	waves := []struct {
		name   string
		region stburst.Rect
		time   stburst.Timespan
	}{
		{"US wave", stburst.Rect{MinX: -5, MinY: -5, MaxX: 10, MaxY: 10}, stburst.Timespan{Start: 4, End: 6}},
		{"EU wave", stburst.Rect{MinX: 70, MinY: 5, MaxX: 90, MaxY: 20}, stburst.Timespan{Start: 14, End: 16}},
	}
	for _, wave := range waves {
		page, err := store.Query(ctx, stburst.Query{
			Text:   "gadget launch",
			Kind:   stburst.KindRegional,
			K:      4,
			Region: &wave.region,
			Time:   &wave.time,
		})
		if err != nil {
			log.Fatal(err)
		}
		show(wave.name, page.Hits)
	}
}
