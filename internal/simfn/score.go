package simfn

import (
	"sort"

	"refrecon/internal/depgraph"
)

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
	tree    func(c *ClassScore, ev EvidenceView) float64
}

// SRV computes the row's S_rv decision tree over the evidence. The trees are
// monotone in the evidence values (§3.2's termination argument), with one
// pinned exception at the Article title gate; TestScoreRowsMonotone walks
// the table.
func (c *ClassScore) SRV(ev EvidenceView) float64 { return c.tree(c, ev) }

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

// Evidence is the digest of a node's incoming edges: per evidence type, the
// maximum similarity among real-valued sources (§4's MAX rule for
// multi-valued attributes), plus the counts of merged boolean-valued
// sources.
type Evidence struct {
	Real         map[string]float64
	StrongMerged int
	WeakMerged   int
	// NonMergeReal marks evidence types for which some incoming
	// real-valued source is a non-merge node (hard negative evidence the
	// decision tree must respect, §4).
	NonMergeReal map[string]bool
}

// Gather digests the incoming edges of a reference-pair node.
func Gather(n *depgraph.Node) Evidence {
	ev := Evidence{Real: make(map[string]float64)}
	for _, e := range n.In() {
		src := e.From
		switch e.Dep {
		case depgraph.RealValued:
			if src.Status() == depgraph.NonMerge {
				if ev.NonMergeReal == nil {
					ev.NonMergeReal = make(map[string]bool)
				}
				ev.NonMergeReal[e.Evidence] = true
				continue
			}
			// Presence matters even at similarity zero: an evidence type
			// that was compared and found dissimilar must not masquerade
			// as a missing attribute (the renormalizing similarity
			// functions would otherwise inflate the remaining evidence).
			if cur, ok := ev.Real[e.Evidence]; !ok || src.Sim() > cur {
				ev.Real[e.Evidence] = src.Sim()
			}
		case depgraph.StrongBoolean:
			if src.Status() == depgraph.Merged {
				ev.StrongMerged++
			}
		case depgraph.WeakBoolean:
			if src.Status() == depgraph.Merged {
				ev.WeakMerged++
			}
		}
	}
	return ev
}

// EvidenceView is the read-only evidence access the decision trees consume.
// Two implementations exist: Evidence (a full rescan of the incoming edges,
// the reference semantics) and depgraph.EvidenceDigest (the delta-maintained
// aggregate, O(changed neighbors) per step). The contract for bit-identical
// scores: both enumerate present evidence kinds in lexicographic order and
// expose the same per-kind maxima and boolean counts.
type EvidenceView interface {
	// RealEvidence returns the maximum similarity among real-valued sources
	// of the kind and whether any such source is present.
	RealEvidence(kind string) (float64, bool)
	// EachRealEvidence visits the present kinds in lexicographic order.
	EachRealEvidence(fn func(kind string, max float64))
	// StrongMergedCount returns the number of merged strong-boolean sources.
	StrongMergedCount() int
	// WeakMergedCount returns the number of merged weak-boolean sources.
	WeakMergedCount() int
}

// RealEvidence implements EvidenceView.
func (ev Evidence) RealEvidence(kind string) (float64, bool) {
	v, ok := ev.Real[kind]
	return v, ok
}

// EachRealEvidence implements EvidenceView: kinds are visited in sorted
// order so that accumulation order (and thus float rounding) matches the
// digest path bit for bit.
func (ev Evidence) EachRealEvidence(fn func(kind string, max float64)) {
	kinds := make([]string, 0, len(ev.Real))
	for k := range ev.Real {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fn(k, ev.Real[k])
	}
}

// StrongMergedCount implements EvidenceView.
func (ev Evidence) StrongMergedCount() int { return ev.StrongMerged }

// WeakMergedCount implements EvidenceView.
func (ev Evidence) WeakMergedCount() int { return ev.WeakMerged }

// Scorer scores dependency-graph nodes with the paper's similarity
// template. It implements depgraph.Scorer.
type Scorer struct {
	// Rows maps each class to its score row; a class without an entry is
	// scored by ScoreGeneric.
	Rows map[string]*ClassScore
	// Rescan forces the reference scoring path: every Score call digests
	// the node's full incoming neighborhood with Gather. When false (the
	// default) Score reads the node's delta-maintained evidence digest,
	// making each propagation step O(changed neighbors). Both paths
	// produce bit-identical similarities; the equivalence tests enforce it.
	Rescan bool
}

// Score implements depgraph.Scorer.
func (s *Scorer) Score(n *depgraph.Node) float64 {
	if n.Kind() == depgraph.ValuePair {
		return s.scoreValuePairNode(n)
	}
	var view EvidenceView
	if s.Rescan {
		view = Gather(n)
	} else {
		view = n.Digest()
	}
	row := s.Rows[n.Class()]
	if row == nil {
		row = ScoreGeneric
	}
	srv := row.SRV(view)
	total := srv
	if srv >= row.TRV {
		total += row.Beta * float64(view.StrongMergedCount())
		total += row.Gamma * float64(view.WeakMergedCount())
	}
	if total > 1 {
		total = 1
	}
	return total
}

// scoreValuePairNode implements alias learning: a value pair's similarity
// is its precomputed score, raised to 1 once any reference pair it
// identifies (an incoming strong-boolean neighbor) has merged — e.g. two
// venue names become known aliases when their venues reconcile.
func (s *Scorer) scoreValuePairNode(n *depgraph.Node) float64 {
	if s.Rescan {
		return scoreValuePair(n)
	}
	if n.Digest().StrongMergedCount() > 0 {
		return 1
	}
	return n.Sim()
}

// scoreValuePair is the rescan form of alias learning.
func scoreValuePair(n *depgraph.Node) float64 {
	s := n.Sim()
	for _, e := range n.In() {
		if e.Dep == depgraph.StrongBoolean && e.From.Status() == depgraph.Merged {
			return 1
		}
	}
	return s
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
func srvPerson(_ *ClassScore, ev EvidenceView) float64 {
	name, hasName := ev.RealEvidence(EvName)
	email, hasEmail := ev.RealEvidence(EvEmail)
	cross, hasCross := ev.RealEvidence(EvNameEmail)

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
func srvArticle(c *ClassScore, ev EvidenceView) float64 {
	title, hasTitle := ev.RealEvidence(EvTitle)
	pages, hasPages := ev.RealEvidence(EvPages)
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

// srvGeneric averages whatever evidence is present with equal weight. Kinds
// are accumulated in the view's sorted enumeration order so both evidence
// views round identically.
func srvGeneric(_ *ClassScore, ev EvidenceView) float64 {
	sum, count := 0.0, 0
	ev.EachRealEvidence(func(_ string, v float64) {
		sum += v
		count++
	})
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// weightedPresent is the row's weighted average over the evidence types
// that are present: a missing attribute is excluded rather than scored 0
// (§4), so the weights renormalize.
func (c *ClassScore) weightedPresent(ev EvidenceView) float64 {
	num, den := 0.0, 0.0
	for i, label := range c.Reads {
		if v, ok := ev.RealEvidence(label); ok {
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
