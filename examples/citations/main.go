// The citations example reconciles a noisy citation corpus shaped like the
// Cora benchmark (§5.4): 112 papers cited ~1295 times with abbreviated
// author names, venue-name chaos, and occasional wrong venues. It shows
// how reconciling articles collectively drags venue recall up — and, on
// this noisy data, drags venue precision down, exactly the trade-off the
// paper reports in Table 7.
//
// Run with: go run ./examples/citations [-scale 0.5]
package main

import (
	"flag"
	"fmt"
	"log"

	"refrecon"
	"refrecon/internal/datagen/cora"
)

func main() {
	scale := flag.Float64("scale", 0.5, "dataset scale (1.0 = the 1295-citation benchmark)")
	flag.Parse()

	g, err := cora.Generate(cora.Default(*scale))
	if err != nil {
		log.Fatal(err)
	}
	store := g.Store
	fmt.Printf("citation corpus at scale %.2f: %d references (%d papers, %d authors)\n\n",
		*scale, store.Len(), g.Papers, g.Authors)

	base, err := refrecon.New(refrecon.PIMSchema(), refrecon.IndepDecConfig()).Reconcile(store)
	if err != nil {
		log.Fatal(err)
	}
	full, err := refrecon.New(refrecon.PIMSchema(), refrecon.DefaultConfig()).Reconcile(store)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s | %-24s | %-24s\n", "Class", "IndepDec P/R (F)", "DepGraph P/R (F)")
	for _, class := range []string{refrecon.ClassPerson, refrecon.ClassArticle, refrecon.ClassVenue} {
		b := refrecon.Evaluate(store, class, base.Partitions[class])
		d := refrecon.Evaluate(store, class, full.Partitions[class])
		fmt.Printf("%-10s | %.3f/%.3f (%.3f)      | %.3f/%.3f (%.3f)\n",
			class, b.Precision, b.Recall, b.F1, d.Precision, d.Recall, d.F1)
	}

	// Show one resolved paper: the most-cited article and a sample of its
	// citation titles.
	best := 0
	var bestPart []refrecon.ID
	for _, part := range full.Partitions[refrecon.ClassArticle] {
		if len(part) > best {
			best = len(part)
			bestPart = part
		}
	}
	fmt.Printf("\nmost-cited resolved paper (%d citations), sample titles:\n", best)
	for i, id := range bestPart {
		if i == 6 {
			fmt.Printf("  ... and %d more\n", len(bestPart)-i)
			break
		}
		fmt.Printf("  %q\n", store.Get(id).FirstAtomic(refrecon.AttrTitle))
	}
}
