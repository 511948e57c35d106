package experiments

import (
	"io"

	"refrecon/internal/dataset"
	"refrecon/internal/metrics"
	"refrecon/internal/recon"
	"refrecon/internal/schema"
)

// Table1Row describes one dataset (paper Table 1).
type Table1Row struct {
	Dataset    string
	References int
	Entities   int
	Ratio      float64
}

// Table1 reproduces Table 1: reference and entity counts per dataset.
func (s *Suite) Table1() []Table1Row {
	var rows []Table1Row
	add := func(d *dataset.Dataset) {
		refs := d.Store.Len()
		ents := 0
		for _, class := range d.Store.Classes() {
			ents += d.EntityCount(class)
		}
		row := Table1Row{Dataset: d.Name, References: refs, Entities: ents}
		if ents > 0 {
			row.Ratio = float64(refs) / float64(ents)
		}
		rows = append(rows, row)
	}
	for _, name := range PIMNames() {
		add(s.PIM(name))
	}
	add(s.Cora())
	return rows
}

// FprintTable1 renders Table 1.
func FprintTable1(w io.Writer, rows []Table1Row) {
	fprintf(w, "Table 1: dataset properties\n")
	fprintf(w, "%-8s %12s %10s %14s\n", "Dataset", "#(Refs)", "#(Ents)", "#Ref/#Entity")
	for _, r := range rows {
		fprintf(w, "%-8s %12d %10d %14.1f\n", r.Dataset, r.References, r.Entities, r.Ratio)
	}
}

// ClassComparison is one row of Tables 2 and 7: both algorithms on one
// class.
type ClassComparison struct {
	Class    string
	IndepDec metrics.Report
	DepGraph metrics.Report
}

// Table2 reproduces Table 2: average precision/recall/F per class over the
// four PIM datasets, IndepDec vs DepGraph.
func (s *Suite) Table2() []ClassComparison {
	perClassInd := make(map[string][]metrics.Report)
	perClassDep := make(map[string][]metrics.Report)
	for _, name := range PIMNames() {
		d := s.PIM(name)
		ind := s.Run(d, IndepDec())
		dep := s.Run(d, DepGraph())
		for _, class := range Classes {
			perClassInd[class] = append(perClassInd[class], ind[class])
			perClassDep[class] = append(perClassDep[class], dep[class])
		}
	}
	var out []ClassComparison
	for _, class := range Classes {
		out = append(out, ClassComparison{
			Class:    class,
			IndepDec: metrics.Average(perClassInd[class]),
			DepGraph: metrics.Average(perClassDep[class]),
		})
	}
	return out
}

// FprintComparison renders Table 2/3/7-style rows.
func FprintComparison(w io.Writer, title string, rows []ClassComparison) {
	fprintf(w, "%s\n", title)
	fprintf(w, "%-10s | %-22s | %-22s\n", "Class", "IndepDec P/R (F)", "DepGraph P/R (F)")
	for _, r := range rows {
		fprintf(w, "%-10s | %.3f/%.3f (%.3f)    | %.3f/%.3f (%.3f)\n",
			r.Class,
			r.IndepDec.Precision, r.IndepDec.Recall, r.IndepDec.F1,
			r.DepGraph.Precision, r.DepGraph.Recall, r.DepGraph.F1)
	}
}

// Table3 reproduces Table 3: Person reconciliation on the full datasets
// and the PArticle/PEmail subsets, averaged over the PIM datasets.
func (s *Suite) Table3() []ClassComparison {
	subsetRows := []struct {
		label  string
		subset func(*dataset.Dataset) *dataset.Dataset
	}{
		{"Full", func(d *dataset.Dataset) *dataset.Dataset { return d }},
		{"PArticle", (*dataset.Dataset).PArticle},
		{"PEmail", (*dataset.Dataset).PEmail},
	}
	var out []ClassComparison
	for _, sr := range subsetRows {
		var inds, deps []metrics.Report
		for _, name := range PIMNames() {
			d := sr.subset(s.PIM(name))
			inds = append(inds, s.Run(d, IndepDec())[schema.ClassPerson])
			deps = append(deps, s.Run(d, DepGraph())[schema.ClassPerson])
		}
		out = append(out, ClassComparison{
			Class:    sr.label,
			IndepDec: metrics.Average(inds),
			DepGraph: metrics.Average(deps),
		})
	}
	return out
}

// Table4Row is one PIM dataset's Person comparison with partition counts.
type Table4Row struct {
	Dataset    string
	Persons    int // gold entities
	References int
	IndepDec   metrics.Report
	DepGraph   metrics.Report
}

// Table4 reproduces Table 4: per-dataset Person results.
func (s *Suite) Table4() []Table4Row {
	var out []Table4Row
	for _, name := range PIMNames() {
		d := s.PIM(name)
		ind := s.Run(d, IndepDec())[schema.ClassPerson]
		dep := s.Run(d, DepGraph())[schema.ClassPerson]
		out = append(out, Table4Row{
			Dataset:    name,
			Persons:    ind.Entities,
			References: ind.References,
			IndepDec:   ind,
			DepGraph:   dep,
		})
	}
	return out
}

// FprintTable4 renders Table 4.
func FprintTable4(w io.Writer, rows []Table4Row) {
	fprintf(w, "Table 4: Person reconciliation per PIM dataset\n")
	fprintf(w, "%-18s | %-30s | %-30s\n", "Dataset (#P/#Refs)", "IndepDec P/R (F) #Par", "DepGraph P/R (F) #Par")
	for _, r := range rows {
		fprintf(w, "%-2s (%5d/%6d)  | %.3f/%.3f (%.3f) %6d      | %.3f/%.3f (%.3f) %6d\n",
			r.Dataset, r.Persons, r.References,
			r.IndepDec.Precision, r.IndepDec.Recall, r.IndepDec.F1, r.IndepDec.Partitions,
			r.DepGraph.Precision, r.DepGraph.Recall, r.DepGraph.F1, r.DepGraph.Partitions)
	}
}

// Modes and evidence levels of the §5.3 ablation, in presentation order.
var (
	AblationModes = []recon.Mode{
		recon.ModeTraditional, recon.ModePropagation, recon.ModeMerge, recon.ModeFull,
	}
	AblationEvidence = []recon.EvidenceLevel{
		recon.EvidenceAttrWise, recon.EvidenceNameEmail, recon.EvidenceArticle, recon.EvidenceContact,
	}
)

// Table5 holds the ablation grid of Table 5 / Figure 6: the number of
// Person partitions produced on dataset A by each mode x evidence
// combination, plus the real entity count for computing reductions.
type Table5 struct {
	Dataset string
	// Partitions[mode][evidence] in AblationModes x AblationEvidence
	// order.
	Partitions [4][4]int
	Entities   int
	References int
}

// Table5Ablation reproduces Table 5 (and the Figure 6 series) on the given
// PIM dataset (the paper uses A). The grid runs from IndepDec, the
// top-left cell (constraints off, §5.2), to DepGraph, the bottom-right
// one, so its corners are Table 4's two runs.
func (s *Suite) Table5Ablation(name string) Table5 {
	d := s.PIM(name)
	out := Table5{Dataset: name}
	for i, mode := range AblationModes {
		for j, ev := range AblationEvidence {
			cfg := DepGraphWith(func(c *recon.Config) { c.Mode, c.Evidence = mode, ev })
			if i == 0 && j == 0 {
				cfg = IndepDec()
			}
			rep := s.Run(d, cfg)[schema.ClassPerson]
			out.Partitions[i][j] = rep.Partitions
			out.Entities = rep.Entities
			out.References = rep.References
		}
	}
	return out
}

// Reduction returns the Table 5 "Reduction(%)" for a mode row: how much of
// the Attr-wise partition surplus the full evidence set eliminated.
func (t Table5) Reduction(modeIdx int) float64 {
	return metrics.ReductionPercent(t.Partitions[modeIdx][0], t.Partitions[modeIdx][3], t.Entities)
}

// ModeReduction returns the last-row reduction for an evidence column:
// improvement from Traditional to Full mode.
func (t Table5) ModeReduction(evidenceIdx int) float64 {
	return metrics.ReductionPercent(t.Partitions[0][evidenceIdx], t.Partitions[3][evidenceIdx], t.Entities)
}

// OverallReduction is the bottom-right cell: Traditional/Attr-wise
// (IndepDec) to Full/Contact (DepGraph).
func (t Table5) OverallReduction() float64 {
	return metrics.ReductionPercent(t.Partitions[0][0], t.Partitions[3][3], t.Entities)
}

// FprintTable5 renders the ablation grid.
func FprintTable5(w io.Writer, t Table5) {
	fprintf(w, "Table 5: Person partitions on dataset %s (%d references, %d entities)\n",
		t.Dataset, t.References, t.Entities)
	fprintf(w, "%-12s", "Mode")
	for _, ev := range AblationEvidence {
		fprintf(w, " %10s", ev)
	}
	fprintf(w, " %12s\n", "Reduction(%)")
	for i, mode := range AblationModes {
		fprintf(w, "%-12s", mode)
		for j := range AblationEvidence {
			fprintf(w, " %10d", t.Partitions[i][j])
		}
		fprintf(w, " %11.1f%%\n", t.Reduction(i))
	}
	fprintf(w, "%-12s", "Reduction(%)")
	for j := range AblationEvidence {
		fprintf(w, " %9.1f%%", t.ModeReduction(j))
	}
	fprintf(w, " %11.1f%%\n", t.OverallReduction())
}

// FprintFigure6 renders the Table 5 grid as the Figure 6 series: one line
// per mode, partition counts decreasing as evidence accumulates. The
// top-left point is IndepDec; the bottom-right is DepGraph.
func FprintFigure6(w io.Writer, t Table5) {
	fprintf(w, "Figure 6: Person partitions by evidence level (dataset %s, %d entities)\n", t.Dataset, t.Entities)
	fprintf(w, "evidence")
	for _, ev := range AblationEvidence {
		fprintf(w, ",%s", ev)
	}
	fprintf(w, "\n")
	for i, mode := range AblationModes {
		fprintf(w, "%s", mode)
		for j := range AblationEvidence {
			fprintf(w, ",%d", t.Partitions[i][j])
		}
		fprintf(w, "\n")
	}
}

// Table6Row compares constrained and unconstrained DepGraph (Table 6).
type Table6Row struct {
	Method                     string
	Precision, Recall          float64
	EntitiesWithFalsePositives int
	GraphNodes                 int
}

// Table6Constraints reproduces Table 6 on the given dataset (the paper
// uses A).
func (s *Suite) Table6Constraints(name string) []Table6Row {
	d := s.PIM(name)
	withC := DepGraph()
	withoutC := DepGraphWith(func(c *recon.Config) { c.Constraints = false })
	repC := s.Run(d, withC)[schema.ClassPerson]
	stC := s.RunStats(d, withC)
	repN := s.Run(d, withoutC)[schema.ClassPerson]
	stN := s.RunStats(d, withoutC)
	return []Table6Row{
		{"DepGraph", repC.Precision, repC.Recall, repC.EntitiesWithFalsePositives, stC.GraphNodes},
		{"Non-Constraint", repN.Precision, repN.Recall, repN.EntitiesWithFalsePositives, stN.GraphNodes},
	}
}

// FprintTable6 renders Table 6.
func FprintTable6(w io.Writer, rows []Table6Row) {
	fprintf(w, "Table 6: effect of constraints (Person)\n")
	fprintf(w, "%-16s %14s %22s %10s\n", "Method", "Prec/Recall", "#(Ent w/ false-pos)", "#(Nodes)")
	for _, r := range rows {
		fprintf(w, "%-16s %7.3f/%.4f %22d %10d\n", r.Method, r.Precision, r.Recall, r.EntitiesWithFalsePositives, r.GraphNodes)
	}
}

// Table7 reproduces Table 7: both algorithms per class on the Cora
// dataset.
func (s *Suite) Table7() []ClassComparison {
	return s.coraComparison(s.Cora())
}

// Table7FreeText is the extension variant of Table 7 on the free-text
// Cora corpus: the same citations, but extracted with the heuristic
// citation-string parser, so extraction noise is part of the problem.
func (s *Suite) Table7FreeText() []ClassComparison {
	return s.coraComparison(s.CoraFreeText())
}

func (s *Suite) coraComparison(d *dataset.Dataset) []ClassComparison {
	ind := s.Run(d, IndepDec())
	dep := s.Run(d, DepGraph())
	var out []ClassComparison
	for _, class := range Classes {
		out = append(out, ClassComparison{Class: class, IndepDec: ind[class], DepGraph: dep[class]})
	}
	return out
}
