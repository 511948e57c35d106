package simfn

import "refrecon/internal/depgraph"

// ClassParams are the per-class tuning constants of §4/§5.2.
type ClassParams struct {
	// TRV is the S_rv gate below which boolean-valued evidence is ignored.
	TRV float64
	// Beta is the per-merged-strong-boolean-neighbor increment.
	Beta float64
	// Gamma is the per-merged-weak-boolean-neighbor increment.
	Gamma float64
}

// defaultParams are the published Person and Article settings (§5.2), which
// the generic row shares.
var defaultParams = ClassParams{TRV: 0.7, Beta: 0.1, Gamma: 0.05}

// ClassScore is one instantiation of the §4 template: the S_rv decision
// tree a class is scored with and the constants of its boolean terms. The
// rows below are the whole table; a class row of recon's model binds one by
// pointer, and nothing else says how a class is scored.
type ClassScore struct {
	ClassParams
	// Reads lists the real-valued evidence labels the tree reads by name;
	// nil for a tree that takes whatever evidence is present.
	Reads []string
	// weights, parallel to Reads, are the coefficients of a tree that is a
	// weighted average over the present evidence; nil for a tree with
	// coefficients of its own.
	weights []float64
	tree    func(c *ClassScore, ev *Evidence) float64
}

// SRV computes the row's S_rv decision tree over the evidence. The trees are
// monotone in the evidence values (§3.2's termination argument), with one
// pinned exception at the Article title gate; TestScoreRowsMonotone walks
// the table.
func (c *ClassScore) SRV(ev *Evidence) float64 { return c.tree(c, ev) }

// The score rows. The published constants (§5.2): β = 0.1 (0.2 for Venue),
// γ = 0.05, t_rv = 0.7 (0.1 for Venue).
var (
	ScorePerson = &ClassScore{
		ClassParams: defaultParams,
		Reads:       []string{EvName, EvEmail, EvNameEmail},
		tree:        srvPerson,
	}
	ScoreArticle = &ClassScore{
		ClassParams: defaultParams,
		Reads:       []string{EvTitle, EvAuthors, EvVenue, EvYear, EvPages},
		weights:     []float64{0.75, 0.10, 0.07, 0.04, 0.04},
		tree:        srvArticle,
	}
	// ScoreVenue is the plain weighted average. A venue reference denotes an
	// *edition* — Figure 1's c1 and c2 are both SIGMOD'78 — so the year
	// carries as much weight as the name: two mentions with compatible names
	// and the same year are probably the same edition, while an identical
	// name with a different year is a different edition. Venue t_rv is very
	// low, so article reconciliations readily push edition pairs over the
	// threshold (the paper's venue-recall machinery, and on noisy citation
	// data also its venue-precision cost).
	ScoreVenue = &ClassScore{
		ClassParams: ClassParams{TRV: 0.1, Beta: 0.2, Gamma: 0.05},
		Reads:       []string{EvVenueName, EvYear, EvLocation},
		weights:     []float64{0.40, 0.50, 0.10},
		tree:        (*ClassScore).weightedPresent,
	}
	// ScoreGeneric scores a class without a row of its own.
	ScoreGeneric = &ClassScore{ClassParams: defaultParams, tree: srvGeneric}
)

// Evidence is the digest of a node's incoming edges: per real-valued
// evidence label, the maximum similarity among the present sources (§4's
// MAX rule for multi-valued attributes), plus the counts of merged
// boolean-valued sources. The labels are kept sorted in a small slice with
// inline storage, so the trees enumerate them in one deterministic order
// and a node with a handful of labels costs no allocation beyond the
// Evidence itself. An Evidence must not be copied once filled.
type Evidence struct {
	StrongMerged int
	WeakMerged   int
	labels       []labelMax // sorted by label
	inline       [4]labelMax
}

// labelMax is one evidence label's running maximum.
type labelMax struct {
	label string
	max   float64
}

// Gather digests a node's incoming edges afresh. Every propagation step
// scores from it: nothing about a neighbourhood is memoised between steps.
func Gather(n *depgraph.Node) *Evidence {
	ev := new(Evidence)
	n.EachIn(func(e depgraph.Edge) {
		switch e.Dep {
		case depgraph.RealValued:
			// A NonMerge source is constrained distinct: no evidence.
			if e.From.Status() != depgraph.NonMerge {
				ev.Observe(e.Evidence, e.From.Sim())
			}
		case depgraph.StrongBoolean:
			if e.From.Status() == depgraph.Merged {
				ev.StrongMerged++
			}
		case depgraph.WeakBoolean:
			if e.From.Status() == depgraph.Merged {
				ev.WeakMerged++
			}
		}
	})
	return ev
}

// Observe folds one present real-valued source of the label into the
// label's maximum. Presence matters even at similarity zero: an evidence
// type that was compared and found dissimilar must not masquerade as a
// missing attribute (the renormalizing trees would otherwise inflate the
// remaining evidence).
func (ev *Evidence) Observe(label string, sim float64) {
	i := 0
	for i < len(ev.labels) && ev.labels[i].label < label {
		i++
	}
	if i < len(ev.labels) && ev.labels[i].label == label {
		if sim > ev.labels[i].max {
			ev.labels[i].max = sim
		}
		return
	}
	if ev.labels == nil {
		ev.labels = ev.inline[:0]
	}
	ev.labels = append(ev.labels, labelMax{})
	copy(ev.labels[i+1:], ev.labels[i:])
	ev.labels[i] = labelMax{label, sim}
}

// max returns the label's maximum similarity and whether any source of it
// is present.
func (ev *Evidence) max(label string) (float64, bool) {
	for _, l := range ev.labels {
		if l.label == label {
			return l.max, true
		}
	}
	return 0, false
}

// Scorer scores dependency-graph nodes with the paper's similarity
// template. It implements depgraph.Scorer.
type Scorer struct {
	// Rows maps each class to its score row; a class without an entry is
	// scored by ScoreGeneric.
	Rows map[string]*ClassScore
}

// Score implements depgraph.Scorer over the node's freshly gathered
// evidence. A value pair's similarity is its precomputed score, raised to 1
// once a strong-boolean source has merged — alias learning: two venue names
// become known aliases when a reference pair they identify reconciles.
func (s *Scorer) Score(n *depgraph.Node) float64 {
	ev := Gather(n)
	if n.Kind() == depgraph.ValuePair {
		if ev.StrongMerged > 0 {
			return 1
		}
		return n.Sim()
	}
	row := s.Rows[n.Class()]
	if row == nil {
		row = ScoreGeneric
	}
	srv := row.SRV(ev)
	total := srv
	if srv >= row.TRV {
		total += row.Beta * float64(ev.StrongMerged)
		total += row.Gamma * float64(ev.WeakMerged)
	}
	if total > 1 {
		total = 1
	}
	return total
}

// srvPerson is the Person decision tree:
//
//	key branch:   identical email address ⇒ 1 (email is a key attribute);
//	name+email:   0.6·name + 0.4·email       (when email agreement is high)
//	name+cross:   0.65·name + 0.35·nameEmail (name corroborated by address)
//	name only:    name
//	cross only:   0.9·nameEmail              (reference lacking a name)
//	email only:   0.9·email
//
// The branches are alternatives; the best applicable one wins, which keeps
// the function monotone and avoids penalizing missing or multi-valued
// attributes (§4).
func srvPerson(_ *ClassScore, ev *Evidence) float64 {
	name, hasName := ev.max(EvName)
	email, hasEmail := ev.max(EvEmail)
	cross, hasCross := ev.max(EvNameEmail)

	if hasEmail && email >= 1 {
		return 1 // key attribute agreement
	}
	best := 0.0
	if hasName {
		best = name
		if hasEmail && email >= 0.6 {
			best = maxf(best, 0.6*name+0.4*email)
		}
		if hasCross && cross >= 0.5 {
			best = maxf(best, 0.65*name+0.35*cross)
		}
	}
	if hasCross {
		best = maxf(best, 0.9*cross)
	}
	if hasEmail {
		best = maxf(best, 0.9*email)
	}
	return best
}

// srvArticle is the Article decision tree: a weighted average over the
// evidence types that are present (missing attributes are excluded rather
// than scored 0, §4), with title dominating. An exact title plus exact
// pages acts as a key.
func srvArticle(c *ClassScore, ev *Evidence) float64 {
	title, hasTitle := ev.max(EvTitle)
	pages, hasPages := ev.max(EvPages)
	if hasTitle && title >= 1 && hasPages && pages >= 1 {
		return 1
	}
	// Titles gate everything: agreeing authors, venue, and year are
	// routine for *different* articles (same group, same conference), so
	// corroborating evidence only counts once the titles are already
	// close. Each side of the gate is monotone; a title raised across it
	// next to dissimilar other evidence lands lower, which
	// TestArticleTitleGateIsNotMonotone pins.
	if !hasTitle || title < 0.75 {
		return title
	}
	return c.weightedPresent(ev)
}

// srvGeneric averages whatever evidence is present with equal weight,
// accumulated in sorted label order so the rounding is one fixed function
// of the evidence.
func srvGeneric(_ *ClassScore, ev *Evidence) float64 {
	if len(ev.labels) == 0 {
		return 0
	}
	sum := 0.0
	for _, l := range ev.labels {
		sum += l.max
	}
	return sum / float64(len(ev.labels))
}

// weightedPresent is the row's weighted average over the evidence types
// that are present: a missing attribute is excluded rather than scored 0
// (§4), so the weights renormalize.
func (c *ClassScore) weightedPresent(ev *Evidence) float64 {
	num, den := 0.0, 0.0
	for i, label := range c.Reads {
		if v, ok := ev.max(label); ok {
			num += c.weights[i] * v
			den += c.weights[i]
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
