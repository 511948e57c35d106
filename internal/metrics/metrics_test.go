package metrics

import (
	"math"
	"testing"

	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

func addPerson(s *reference.Store, entity string) reference.ID {
	r := reference.New(schema.ClassPerson)
	r.Entity = entity
	return s.Add(r)
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEvaluatePerfect(t *testing.T) {
	s := reference.NewStore()
	a1 := addPerson(s, "A")
	a2 := addPerson(s, "A")
	b1 := addPerson(s, "B")
	rep := Evaluate(s, schema.ClassPerson, [][]reference.ID{{a1, a2}, {b1}})
	if rep.Precision != 1 || rep.Recall != 1 || rep.F1 != 1 {
		t.Errorf("perfect partitioning scored %+v", rep)
	}
	if rep.Partitions != 2 || rep.Entities != 2 || rep.References != 3 {
		t.Errorf("counts wrong: %+v", rep)
	}
	if rep.EntitiesWithFalsePositives != 0 {
		t.Errorf("false positives = %d", rep.EntitiesWithFalsePositives)
	}
}

func TestEvaluateUnderMerge(t *testing.T) {
	s := reference.NewStore()
	a1 := addPerson(s, "A")
	a2 := addPerson(s, "A")
	a3 := addPerson(s, "A")
	// All singletons: precision 1 (no predicted pairs), recall 0.
	rep := Evaluate(s, schema.ClassPerson, [][]reference.ID{{a1}, {a2}, {a3}})
	if rep.Precision != 1 || rep.Recall != 0 {
		t.Errorf("under-merge scored %+v", rep)
	}
	if rep.TruePairs != 3 || rep.PredictedPairs != 0 {
		t.Errorf("pair counts %+v", rep)
	}
}

func TestEvaluateOverMerge(t *testing.T) {
	s := reference.NewStore()
	a1 := addPerson(s, "A")
	a2 := addPerson(s, "A")
	b1 := addPerson(s, "B")
	// Everything lumped together: recall 1, precision 1/3.
	rep := Evaluate(s, schema.ClassPerson, [][]reference.ID{{a1, a2, b1}})
	if !approx(rep.Recall, 1) || !approx(rep.Precision, 1.0/3) {
		t.Errorf("over-merge scored %+v", rep)
	}
	if rep.EntitiesWithFalsePositives != 2 {
		t.Errorf("both entities touch a false positive: %+v", rep)
	}
}

func TestEvaluateIgnoresUnlabeled(t *testing.T) {
	s := reference.NewStore()
	a1 := addPerson(s, "A")
	unk := addPerson(s, "") // no gold label
	rep := Evaluate(s, schema.ClassPerson, [][]reference.ID{{a1, unk}})
	if rep.References != 1 || rep.PredictedPairs != 0 {
		t.Errorf("unlabeled reference leaked into evaluation: %+v", rep)
	}
}

func TestEvaluateIgnoresOtherClasses(t *testing.T) {
	s := reference.NewStore()
	a1 := addPerson(s, "A")
	v := reference.New(schema.ClassVenue)
	v.Entity = "V"
	vid := s.Add(v)
	rep := Evaluate(s, schema.ClassPerson, [][]reference.ID{{a1}, {vid}})
	if rep.References != 1 || rep.Partitions != 1 {
		t.Errorf("other-class reference counted: %+v", rep)
	}
}

func TestFMeasure(t *testing.T) {
	if fMeasure(0, 0) != 0 {
		t.Error("F(0,0) should be 0")
	}
	if !approx(fMeasure(1, 1), 1) {
		t.Error("F(1,1) should be 1")
	}
	if !approx(fMeasure(0.5, 1), 2.0/3) {
		t.Errorf("F(0.5,1) = %f", fMeasure(0.5, 1))
	}
}

func TestAverage(t *testing.T) {
	r1 := Report{Class: "Person", Precision: 1, Recall: 0.5, Partitions: 10}
	r2 := Report{Class: "Person", Precision: 0.5, Recall: 1, Partitions: 20}
	avg := Average([]Report{r1, r2})
	if !approx(avg.Precision, 0.75) || !approx(avg.Recall, 0.75) {
		t.Errorf("avg = %+v", avg)
	}
	if avg.Partitions != 30 {
		t.Errorf("partitions should sum: %d", avg.Partitions)
	}
	if got := Average(nil); got.Precision != 0 {
		t.Error("empty average should be zero value")
	}
}

func TestReductionPercent(t *testing.T) {
	// Paper's headline: 3159 -> 1873 partitions over 1750 entities = 91.3%.
	got := ReductionPercent(3159, 1873, 1750)
	if math.Abs(got-91.3) > 0.1 {
		t.Errorf("reduction = %.1f, want ~91.3", got)
	}
	if ReductionPercent(10, 5, 10) != 0 {
		t.Error("no gap means no reduction")
	}
}
