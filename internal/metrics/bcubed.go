package metrics

import (
	"refrecon/internal/reference"
)

// BCubedReport holds the B-cubed (Bagga & Baldwin) evaluation of one
// class's partitions: per-reference precision and recall averaged over all
// labeled references. Unlike the pairwise measure, B-cubed weights every
// reference equally instead of every pair, so huge entities do not
// dominate; reporting both views is standard practice in entity
// resolution.
type BCubedReport struct {
	Class      string
	Precision  float64
	Recall     float64
	F1         float64
	References int
}

// BCubed evaluates predicted partitions of one class under the B-cubed
// measure. References without gold labels are ignored.
func BCubed(store *reference.Store, class string, partitions [][]reference.ID) BCubedReport {
	rep := BCubedReport{Class: class}

	entityOf := func(id reference.ID) (string, bool) {
		r := store.Get(id)
		if r.Class != class || r.Entity == "" {
			return "", false
		}
		return r.Entity, true
	}

	goldSizes := make(map[string]int)
	for _, id := range store.ByClass(class) {
		if e, ok := entityOf(id); ok {
			goldSizes[e]++
		}
	}

	var sumP, sumR float64
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
		for e, n := range byEntity {
			// Each of the n references of entity e in this cluster has
			// precision n/labeled and recall n/goldSizes[e].
			sumP += float64(n) * float64(n) / float64(labeled)
			sumR += float64(n) * float64(n) / float64(goldSizes[e])
			rep.References += n
		}
	}
	if rep.References > 0 {
		rep.Precision = sumP / float64(rep.References)
		rep.Recall = sumR / float64(rep.References)
	} else {
		rep.Precision, rep.Recall = 1, 1
	}
	rep.F1 = fMeasure(rep.Precision, rep.Recall)
	return rep
}

// ClusterStats summarizes the size distribution of a class's partitions
// over labeled references.
type ClusterStats struct {
	Clusters   int
	References int
	Largest    int
	Singletons int
	MeanSize   float64
}

// Clusters computes partition-size statistics for one class.
func Clusters(store *reference.Store, class string, partitions [][]reference.ID) ClusterStats {
	var st ClusterStats
	for _, part := range partitions {
		labeled := 0
		for _, id := range part {
			r := store.Get(id)
			if r.Class == class && r.Entity != "" {
				labeled++
			}
		}
		if labeled == 0 {
			continue
		}
		st.Clusters++
		st.References += labeled
		if labeled > st.Largest {
			st.Largest = labeled
		}
		if labeled == 1 {
			st.Singletons++
		}
	}
	if st.Clusters > 0 {
		st.MeanSize = float64(st.References) / float64(st.Clusters)
	}
	return st
}
