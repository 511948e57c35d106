// Package metrics evaluates reconciliation output against a gold standard
// with the pairwise measures the paper reports: precision, recall,
// F-measure (§5.2), partition counts (Tables 4 and 5), and the number of
// real-world entities involved in false positives (Table 6).
//
// The pairwise formulation — recall is the fraction of same-entity
// reference pairs that were grouped together, precision the fraction of
// grouped pairs that are truly same-entity — inherently weights popular
// entities more heavily, which the paper argues is right for PIM.
package metrics

import (
	"fmt"

	"refrecon/internal/reference"
)

// Report holds the evaluation of one class's partitions.
type Report struct {
	Class      string
	Precision  float64
	Recall     float64
	F1         float64
	Partitions int // predicted partitions over labeled references
	Entities   int // distinct gold entities
	References int // labeled references evaluated
	// TruePairs / PredictedPairs / CorrectPairs are the raw pair counts.
	TruePairs      int
	PredictedPairs int
	CorrectPairs   int
	// EntitiesWithFalsePositives counts gold entities that appear in at
	// least one predicted partition together with a different entity
	// (the Table 6 error metric).
	EntitiesWithFalsePositives int
}

// String renders the report in the paper's Prec/Recall style.
func (r Report) String() string {
	return fmt.Sprintf("%s: %.3f/%.3f F=%.3f partitions=%d entities=%d",
		r.Class, r.Precision, r.Recall, r.F1, r.Partitions, r.Entities)
}

// Evaluate scores predicted partitions of one class against the gold
// entity labels carried by the references. References with an empty Entity
// label are excluded from the evaluation (they have no ground truth).
func Evaluate(store *reference.Store, class string, partitions [][]reference.ID) Report {
	rep := Report{Class: class}

	entityOf := func(id reference.ID) (string, bool) {
		r := store.Get(id)
		if r.Class != class || r.Entity == "" {
			return "", false
		}
		return r.Entity, true
	}

	// Gold pair count.
	goldSizes := make(map[string]int)
	for _, id := range store.ByClass(class) {
		if e, ok := entityOf(id); ok {
			goldSizes[e]++
			rep.References++
		}
	}
	rep.Entities = len(goldSizes)
	for _, n := range goldSizes {
		rep.TruePairs += n * (n - 1) / 2
	}

	// Predicted pair counts.
	badEntities := make(map[string]bool)
	for _, part := range partitions {
		byEntity := make(map[string]int)
		labeled := 0
		for _, id := range part {
			if e, ok := entityOf(id); ok {
				byEntity[e]++
				labeled++
			}
		}
		if labeled == 0 {
			continue
		}
		rep.Partitions++
		rep.PredictedPairs += labeled * (labeled - 1) / 2
		for e, n := range byEntity {
			rep.CorrectPairs += n * (n - 1) / 2
			if len(byEntity) > 1 {
				badEntities[e] = true
			}
		}
	}
	rep.EntitiesWithFalsePositives = len(badEntities)

	rep.Precision = ratio(rep.CorrectPairs, rep.PredictedPairs)
	rep.Recall = ratio(rep.CorrectPairs, rep.TruePairs)
	rep.F1 = fMeasure(rep.Precision, rep.Recall)
	return rep
}

// fMeasure is the harmonic mean of precision and recall.
func fMeasure(prec, rec float64) float64 {
	if prec+rec == 0 {
		return 0
	}
	return 2 * prec * rec / (prec + rec)
}

func ratio(num, den int) float64 {
	if den == 0 {
		// No pairs to get wrong: perfect by convention, matching the
		// usual record-linkage treatment of empty denominators.
		return 1
	}
	return float64(num) / float64(den)
}

// Average combines per-dataset reports of one class by macro-averaging
// precision and recall, as the paper does for Tables 2 and 3.
func Average(reports []Report) Report {
	if len(reports) == 0 {
		return Report{}
	}
	out := Report{Class: reports[0].Class}
	for _, r := range reports {
		out.Precision += r.Precision
		out.Recall += r.Recall
		out.Partitions += r.Partitions
		out.Entities += r.Entities
		out.References += r.References
		out.TruePairs += r.TruePairs
		out.PredictedPairs += r.PredictedPairs
		out.CorrectPairs += r.CorrectPairs
		out.EntitiesWithFalsePositives += r.EntitiesWithFalsePositives
	}
	n := float64(len(reports))
	out.Precision /= n
	out.Recall /= n
	out.F1 = fMeasure(out.Precision, out.Recall)
	return out
}

// ReductionPercent measures recall improvement as the paper's Table 5
// does: the percentage reduction in the gap between the number of result
// partitions and the number of real entities, going from a baseline
// partition count to an improved one.
func ReductionPercent(baselineParts, improvedParts, entities int) float64 {
	gapBase := baselineParts - entities
	gapImproved := improvedParts - entities
	if gapBase <= 0 {
		return 0
	}
	return 100 * float64(gapBase-gapImproved) / float64(gapBase)
}
