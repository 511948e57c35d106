// Command benchtables regenerates the tables and figures of the paper's
// evaluation section (§5) on the synthetic datasets. Performance is
// measured by the repository benchmark instead (bench/README.md).
//
// Usage:
//
//	benchtables [-scale 0.25] [-table N] [-ablations]
//
// -scale multiplies the paper-scale dataset sizes (1.0 reproduces the
// Table 1 reference counts but takes correspondingly longer); -table
// restricts output to one table (1..7; 5 also prints the Figure 6
// series). Without -table, everything is printed. A -scale ≤ 0 or a
// -table outside 0..7 exits 2.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"refrecon/internal/experiments"
)

func main() {
	scale := flag.Float64("scale", 0.25, "dataset scale factor (1.0 = paper scale)")
	table := flag.Int("table", 0, "print only this table (1-7; 0 = all)")
	ablations := flag.Bool("ablations", false, "also print the repository's design-choice ablations (blocking coverage)")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("benchtables: ")
	if *scale <= 0 || *table < 0 || *table > 7 {
		log.Printf("-scale takes a factor > 0 and -table a number in 0..7 (got -scale %g -table %d)", *scale, *table)
		os.Exit(2)
	}

	s := experiments.NewSuite(*scale)
	w := os.Stdout
	want := func(n int) bool { return *table == 0 || *table == n }
	start := time.Now()

	if want(1) {
		experiments.FprintTable1(w, s.Table1())
		fmt.Fprintln(w)
	}
	if want(2) {
		experiments.FprintComparison(w, "Table 2: average P/R/F per class (PIM datasets)", s.Table2())
		fmt.Fprintln(w)
	}
	if want(3) {
		experiments.FprintComparison(w, "Table 3: Person subsets (Full / PArticle / PEmail)", s.Table3())
		fmt.Fprintln(w)
	}
	if want(4) {
		experiments.FprintTable4(w, s.Table4())
		fmt.Fprintln(w)
	}
	if want(5) {
		grid := s.Table5Ablation("A")
		experiments.FprintTable5(w, grid)
		fmt.Fprintln(w)
		experiments.FprintFigure6(w, grid)
		fmt.Fprintln(w)
	}
	if want(6) {
		experiments.FprintTable6(w, s.Table6Constraints("A"))
		fmt.Fprintln(w)
	}
	if want(7) {
		experiments.FprintComparison(w, "Table 7: Cora dataset", s.Table7())
		fmt.Fprintln(w)
	}
	if *ablations {
		experiments.FprintBlockingAblation(w, "A", s.BlockingAblation("A", 8))
		fmt.Fprintln(w)
		experiments.FprintNoiseSweep(w, "A", s.NoiseSweep("A", nil))
		fmt.Fprintln(w)
		experiments.FprintComparison(w,
			"Table 7b (extension): Cora via free-text citation extraction", s.Table7FreeText())
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "(scale %.2f, %s)\n", *scale, time.Since(start).Round(time.Millisecond))
}
