// Quickstart: build a tiny spatiotemporal collection, mine both kinds of
// burstiness patterns for a term, and run bursty-document searches — a
// free-text one, and a structured Query restricted to a region and
// timeframe.
package main

import (
	"context"
	"fmt"
	"log"

	"stburst"
)

func main() {
	// Three news streams: two nearby Andean capitals and Tokyo.
	streams := []stburst.StreamInfo{
		{Name: "lima", Location: stburst.Point{X: 0, Y: 0}},
		{Name: "quito", Location: stburst.Point{X: 3, Y: 2}},
		{Name: "tokyo", Location: stburst.Point{X: 95, Y: 80}},
	}
	c := stburst.NewCollection(streams, 12) // 12 weekly timestamps

	add := func(s, week int, text string) {
		if _, err := c.AddText(s, week, text); err != nil {
			log.Fatal(err)
		}
	}
	// Steady background coverage everywhere.
	for w := 0; w < 12; w++ {
		add(0, w, "markets open steady amid calm trading week")
		add(1, w, "football results and weather outlook")
		add(2, w, "technology exports rise in quarterly report")
	}
	// A localized earthquake story: heavy coverage in Lima and Quito
	// during weeks 5-7, nothing in Tokyo.
	for w := 5; w <= 7; w++ {
		for i := 0; i < 4; i++ {
			add(0, w, "earthquake shakes the coast, rescue teams respond to earthquake damage")
			add(1, w, "earthquake tremors felt across the border region")
		}
	}

	fmt.Println("== regional patterns (STLocal) for \"earthquake\" ==")
	for _, p := range c.RegionalPatterns("earthquake", nil) {
		fmt.Printf("  weeks [%d,%d]  w-score %.2f  region %v  streams %v\n",
			p.Start, p.End, p.Score, p.Rect, p.Streams)
	}

	fmt.Println("== combinatorial patterns (STComb) for \"earthquake\" ==")
	for _, p := range c.CombinatorialPatterns("earthquake", nil) {
		fmt.Printf("  weeks [%d,%d]  score %.2f  streams %v\n", p.Start, p.End, p.Score, p.Streams)
	}

	// Mine the whole vocabulary once; the store answers every query.
	ctx := context.Background()
	store, err := c.MineStore(ctx, nil, stburst.KindRegional)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== bursty-document search ==")
	page, err := store.Query(ctx, stburst.Query{Text: "earthquake rescue", K: 5})
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range page.Hits {
		fmt.Printf("  doc %d from %s at week %d (score %.2f)\n",
			h.Doc.ID, h.Stream, h.Doc.Time, h.Score)
	}

	// The same retrieval as a structured query: only documents whose
	// contributing patterns touch the Andes during weeks 5-7.
	fmt.Println("== structured query: near the Andes, weeks 5-7 ==")
	page, err = store.Query(ctx, stburst.Query{
		Text:   "earthquake rescue",
		K:      5,
		Region: &stburst.Rect{MinX: -5, MinY: -5, MaxX: 10, MaxY: 10},
		Time:   &stburst.Timespan{Start: 5, End: 7},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range page.Hits {
		fmt.Printf("  doc %d from %s at week %d (score %.2f)\n",
			h.Doc.ID, h.Stream, h.Doc.Time, h.Score)
	}
}
