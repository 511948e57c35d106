// The pim example reconciles a synthetic personal-information dataset —
// email and BibTeX corpora rendered and re-parsed through the real
// extractors — and compares the DepGraph algorithm against the
// attribute-wise baseline, printing quality metrics and a few resolved
// entities.
//
// Run with: go run ./examples/pim [-scale 0.1]
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"refrecon"
	"refrecon/internal/datagen/pim"
)

func main() {
	scale := flag.Float64("scale", 0.1, "dataset scale (1.0 = paper scale)")
	flag.Parse()

	g, err := pim.Generate(pim.DatasetA(*scale))
	if err != nil {
		log.Fatal(err)
	}
	store := g.Store
	fmt.Printf("dataset A at scale %.2f: %d references\n\n", *scale, store.Len())

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

	// Show the largest resolved person entity: the dataset owner, with all
	// the presentations the reconciler united.
	var owner [][]string
	for _, part := range full.Partitions[refrecon.ClassPerson] {
		if len(part) <= len(owner) {
			continue
		}
		owner = nil
		for _, id := range part {
			r := store.Get(id)
			owner = append(owner, []string{
				r.FirstAtomic(refrecon.AttrName),
				r.FirstAtomic(refrecon.AttrEmail),
			})
		}
	}
	sort.Slice(owner, func(i, j int) bool {
		return owner[i][0]+owner[i][1] < owner[j][0]+owner[j][1]
	})
	fmt.Printf("\nlargest resolved person (%d presentations):\n", len(owner))
	for i, pres := range owner {
		if i == 12 {
			fmt.Printf("  ... and %d more\n", len(owner)-i)
			break
		}
		fmt.Printf("  name=%-24q email=%q\n", pres[0], pres[1])
	}
}
