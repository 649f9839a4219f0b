// Serve walkthrough: the mine-once/serve-many workflow in one process.
// A collection is mined into a Store, saved as a bundle file,
// reloaded with integrity verification, and queried — exactly what the
// stmine -o / stserve pair does across process boundaries (see README.md
// in this directory for the CLI version).
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"stburst"
)

func main() {
	// A tiny corpus: an earthquake story bursting in two Andean capitals.
	streams := []stburst.StreamInfo{
		{Name: "lima", Location: stburst.Point{X: 0, Y: 0}},
		{Name: "quito", Location: stburst.Point{X: 3, Y: 2}},
		{Name: "tokyo", Location: stburst.Point{X: 95, Y: 80}},
	}
	c := stburst.NewCollection(streams, 12)
	add := func(s, w int, text string) {
		if _, err := c.AddText(s, w, text); err != nil {
			log.Fatal(err)
		}
	}
	for w := 0; w < 12; w++ {
		add(0, w, "markets steady calm trading")
		add(1, w, "football results weather outlook")
		add(2, w, "technology exports quarterly report")
	}
	for w := 5; w <= 7; w++ {
		for i := 0; i < 4; i++ {
			add(0, w, "earthquake shakes coast rescue teams respond")
			add(1, w, "earthquake tremors felt across the border")
		}
	}

	// Mine once: every term, in parallel.
	ctx := context.Background()
	store, err := c.MineStore(ctx, nil, stburst.KindRegional)
	if err != nil {
		log.Fatal(err)
	}
	mined := store.Index(stburst.KindRegional)
	fmt.Printf("mined: %d terms, %d patterns\n", mined.NumTerms(), mined.NumPatterns())
	fmt.Printf("fingerprint: %.16s...\n", mined.Fingerprint())

	// Save it as a one-member bundle — this file is what stserve loads
	// at boot.
	path := filepath.Join(os.TempDir(), "serve-example.bundle")
	if err := store.SaveFile(path); err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bundle: %s (%d bytes)\n", path, info.Size())
	defer os.Remove(path)

	// Load it back. The codec verifies a stream checksum and the
	// canonical fingerprint; a truncated or corrupted file is rejected.
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	served, err := stburst.LoadStore(f, c)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	loaded := served.Index(stburst.KindRegional)
	fmt.Printf("loaded fingerprint matches: %v\n", loaded.Fingerprint() == mined.Fingerprint())

	// Serve queries from the loaded store: per-term pattern lookups and
	// TA-backed top-k search, with nothing ever re-mined.
	for _, p := range loaded.RegionalPatterns("earthquake") {
		fmt.Printf("pattern: weeks [%d,%d]  w-score %.2f  %d streams\n",
			p.Start, p.End, p.Score, len(p.Streams))
	}
	page, err := served.Query(ctx, stburst.Query{Text: "earthquake rescue", K: 3})
	if err != nil {
		log.Fatal(err)
	}
	for i, h := range page.Hits {
		fmt.Printf("hit %d: doc %d from %s at week %d (score %.2f)\n",
			i+1, h.Doc.ID, h.Stream, h.Doc.Time, h.Score)
	}
}
