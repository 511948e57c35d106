// Command pimgen generates a synthetic dataset and writes it as JSON to
// stdout (or a file), for inspection or for feeding cmd/reconcile.
//
// Usage:
//
//	pimgen -dataset A [-scale 0.25] [-o dataset.json]
//	pimgen -dataset cora [-scale 1.0]
//	pimgen -refs 100000 [-dup 3.5] [-assoc 0.2] [-seed 1] [-o big.json]
//
// With -refs, pimgen generates a corpus calibrated to approximately that
// many references (100k–1M is the intended range), with -dup controlling
// the duplicate rate (average references per real person) and -assoc the
// cross-class association density (fraction of references from the
// bibliography side). The same -refs/-dup/-assoc/-seed always produce the
// same corpus.
//
// User errors exit 2: an unknown -dataset, -dataset or -scale with -refs,
// and -dup, -assoc or -seed without it.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"refrecon/internal/datagen/cora"
	"refrecon/internal/datagen/pim"
	"refrecon/internal/dataset"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pimgen: ")
	name := flag.String("dataset", "A", "dataset to generate: A, B, C, D, or cora")
	scale := flag.Float64("scale", 0.25, "scale factor (1.0 = paper scale)")
	refs := flag.Int("refs", 0, "generate a scaled corpus of approximately N references instead of a named dataset")
	dup := flag.Float64("dup", 3.5, "with -refs: duplicate rate, average references per real person")
	assoc := flag.Float64("assoc", 0.2, "with -refs: cross-class association density, fraction of references from the bibliography side")
	seed := flag.Int64("seed", 1, "with -refs: generation seed")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case set["refs"] && *refs < 1:
		usageErrorf("-refs takes a count >= 1")
	case set["refs"] && (set["dataset"] || set["scale"]):
		usageErrorf("-dataset and -scale name a fixed dataset; -refs generates a scaled corpus instead")
	case !set["refs"] && (set["dup"] || set["assoc"] || set["seed"]):
		usageErrorf("-dup, -assoc and -seed apply only with -refs")
	}

	var ds *dataset.Dataset
	if *refs > 0 {
		g, err := pim.GenerateScaled(*refs, *dup, *assoc, *seed)
		if err != nil {
			log.Fatal(err)
		}
		ds = &dataset.Dataset{Name: fmt.Sprintf("scaled-%d", *refs), Store: g.Store}
		writeDataset(ds, *out)
		return
	}
	profiles := map[string]func(float64) pim.Profile{"A": pim.DatasetA, "B": pim.DatasetB, "C": pim.DatasetC, "D": pim.DatasetD}
	switch profile := profiles[*name]; {
	case profile != nil:
		g, err := pim.Generate(profile(*scale))
		if err != nil {
			log.Fatal(err)
		}
		ds = &dataset.Dataset{Name: *name, Store: g.Store}
	case *name == "cora":
		g, err := cora.Generate(cora.Default(*scale))
		if err != nil {
			log.Fatal(err)
		}
		ds = &dataset.Dataset{Name: "Cora", Store: g.Store}
	default:
		usageErrorf("unknown -dataset %q (want A, B, C, D, or cora)", *name)
	}

	writeDataset(ds, *out)
}

func writeDataset(ds *dataset.Dataset, out string) {
	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	if err := ds.WriteJSON(w); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "pimgen: wrote %d references\n", ds.Store.Len())
}

// usageErrorf reports a user error and exits 2, as flag does for a malformed flag.
func usageErrorf(format string, args ...any) { log.Printf(format, args...); os.Exit(2) }
