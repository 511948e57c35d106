package recon

// The class model: every decision the evidence model takes per class is one
// classModel row, and this is the only non-test file of the package that
// names a class or an attribute. Person, Article and Venue (the PIM schema;
// Cora shares it) have literal rows; modelFor derives the default row of
// any other class from its declaration. evidence.go binds the rows to a
// schema and configuration. Adding a class is adding a row.

import (
	"slices"

	"refrecon/internal/depgraph"
	"refrecon/internal/emailaddr"
	"refrecon/internal/names"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
	"refrecon/internal/simfn"
)

// classModel is one class's row.
type classModel struct {
	// compare lists the attribute pairs whose values are compared (§3.1
	// step 1), assoc what each association induces (§3.1 step 2).
	compare []attrCompare
	assoc   []assocRule
	// constrained is the pair constraint (§3.4): two references it reports
	// are distinct whatever their similarity. nil for none.
	constrained func(b *builder, r1, r2 *reference.Reference) bool
	// distinct names an association whose targets, within one reference,
	// are pairwise distinct entities ("" for none).
	distinct string
	// keepInduced keeps a pair reached through an association even without
	// attribute evidence, and lowers its evidence floor to 0.05, so that
	// the association has a node to act on.
	keepInduced bool
	// score is the score-table row (simfn.ClassScore) the class's pairs are
	// scored with: the S_rv tree over the labels above and t_rv, β, γ.
	score *simfn.ClassScore
}

// attrCompare declares one comparable attribute pair (§3.1: values "of the
// same attribute, or according to the domain knowledge of related
// attributes, such as a name and an email").
type attrCompare struct {
	attrA, attrB string
	// by is the comparator-table row that scores the values, sets their
	// evidence floor and alias rule, and feeds the statistics it reads.
	by *simfn.Comparator
	// evidence labels the value-pair nodes and their edges: by.Name, filled
	// in by at, unless the row says otherwise (simfn.Generic serves one
	// label per attribute).
	evidence string
	// swap is set when by expects (attrB, attrA) argument order (the
	// name-vs-email comparator takes the name first).
	swap bool
	// from is the lowest evidence level at which the comparison is made.
	from EvidenceLevel
	// keys, on the row that compares an attribute with itself, says how each
	// of its values is keyed for blocking (keys.go); nil for not at all.
	keys func(attr, value string, emit func(string))
	// idx is the comparison's index in evidence.cmps, and ea and eb those of
	// attrA and attrB in evidence.attrs; newEvidence fills them in.
	idx    uint32
	ea, eb int
}

// assocRule declares the dependency one association attribute of a class
// induces between a reference pair and the pairs of its link targets
// (§3.1 step 2): an edge target pair → source pair labelled evidence of
// type dep, and optionally a strong-boolean edge back (Figure 2: merging
// two articles merges their aligned authors and venues).
type assocRule struct {
	attr string
	// pool lists the stored attributes whose targets the rule unions under
	// attr; nil means attr itself is the stored attribute. A pooled rule
	// only ever connects pairs that already exist (the paper's (p4, p7)
	// note) and ignores hyper-popular targets; see wirePooled.
	pool     []string
	evidence string
	dep      depgraph.DepType
	// back labels the strong-boolean back edge ("" for none).
	back string
	// from is the lowest evidence level at which the rule applies. The
	// literal rows' associations enter at EvidenceArticle: the two levels
	// below compare attribute values only, and the lowest is the INDEPDEC
	// baseline's.
	from EvidenceLevel
}

// contactsAttr is the pseudo-attribute a person's coAuthor and
// emailContact links pool under: the paper keeps one contact list per
// person (Figure 2(b) relates p5's *co-author* to p8's *email contact*).
const contactsAttr = "contacts"

// contactRule makes shared or reconciled contacts weak-boolean evidence
// for a person pair (§3.1 step 2, Figure 2(b)).
var contactRule = assocRule{
	attr: contactsAttr, pool: []string{schema.AttrCoAuthor, schema.AttrEmailContact},
	evidence: simfn.EvContact, dep: depgraph.WeakBoolean, from: EvidenceContact,
}

// classModels holds the literal rows.
var classModels = map[string]*classModel{
	schema.ClassPerson: {
		compare: []attrCompare{
			{attrA: schema.AttrName, attrB: schema.AttrName, by: simfn.ByName, keys: personNameKeys},
			{attrA: schema.AttrEmail, attrB: schema.AttrEmail, by: simfn.ByEmail, keys: emailKeys},
			{attrA: schema.AttrName, attrB: schema.AttrEmail, by: simfn.ByNameEmail, from: EvidenceNameEmail},
			{attrA: schema.AttrEmail, attrB: schema.AttrName, by: simfn.ByNameEmail, swap: true, from: EvidenceNameEmail},
		},
		assoc: []assocRule{contactRule},
		// Constraints 2 and 3 of §5.3.
		constrained: (*builder).personConstrained,
		score:       simfn.ScorePerson,
	},
	schema.ClassArticle: {
		compare: []attrCompare{
			{attrA: schema.AttrTitle, attrB: schema.AttrTitle, by: simfn.ByTitle, keys: titleKeys},
			{attrA: schema.AttrYear, attrB: schema.AttrYear, by: simfn.ByYear},
			{attrA: schema.AttrPages, attrB: schema.AttrPages, by: simfn.ByPages},
		},
		assoc: []assocRule{
			{attr: schema.AttrAuthoredBy, evidence: simfn.EvAuthors, dep: depgraph.RealValued, back: simfn.EvArticle, from: EvidenceArticle},
			{attr: schema.AttrPublishedIn, evidence: simfn.EvVenue, dep: depgraph.RealValued, back: simfn.EvArticle, from: EvidenceArticle},
		},
		// Constraint 1 of §5.3: the authors of one article are distinct
		// persons.
		distinct: schema.AttrAuthoredBy,
		score:    simfn.ScoreArticle,
	},
	schema.ClassVenue: {
		compare: []attrCompare{
			{attrA: schema.AttrName, attrB: schema.AttrName, by: simfn.ByVenueName, keys: venueNameKeys},
			{attrA: schema.AttrYear, attrB: schema.AttrYear, by: simfn.ByYear},
			{attrA: schema.AttrLocation, attrB: schema.AttrLocation, by: simfn.ByLocation},
		},
		constrained: (*builder).venueConstrained,
		// Article-driven venue reconciliation needs venue pairs to act on.
		keepInduced: true,
		score:       simfn.ScoreVenue,
	},
}

// modelFor returns the class's row. A class without a literal row gets the
// default one: genericComparisons scored by simfn.ScoreGeneric, no
// constraints, and conservative links in the style of the paper's contact
// evidence — a shared link target, or a reconciled pair of link targets,
// adds weak-boolean evidence (γ per link) gated on the pair's own attribute
// similarity.
func modelFor(c *schema.Class) *classModel {
	if m, ok := classModels[c.Name]; ok {
		return m
	}
	m := &classModel{compare: genericComparisons(c), score: simfn.ScoreGeneric}
	for _, a := range c.AssocAttrs() {
		m.assoc = append(m.assoc, assocRule{attr: a.Name, evidence: "ga:" + a.Name, dep: depgraph.WeakBoolean})
	}
	return m
}

// genericComparisons derives the default row's comparisons: every atomic
// attribute with itself by the generic string comparator, keyed on content
// words.
func genericComparisons(c *schema.Class) []attrCompare {
	var out []attrCompare
	for _, a := range c.AtomicAttrs() {
		out = append(out, attrCompare{attrA: a.Name, attrB: a.Name, by: simfn.Generic, evidence: "g:" + a.Name, keys: wordKeys})
	}
	return out
}

// at returns the row without the comparisons and rules that apply only
// above the evidence level, every comparison labelled.
func (m *classModel) at(level EvidenceLevel) *classModel {
	out := *m
	out.compare = slices.DeleteFunc(slices.Clone(m.compare), func(c attrCompare) bool { return level < c.from })
	for i := range out.compare {
		if c := &out.compare[i]; c.evidence == "" {
			c.evidence = c.by.Name
		}
	}
	out.assoc = slices.DeleteFunc(slices.Clone(m.assoc), func(r assocRule) bool { return level < r.from })
	return &out
}

// elemPrefixes namespaces value element keys per attribute domain so that
// the same string in different attributes is a different element.
var elemPrefixes = map[string]string{
	schema.AttrName:     "n:",
	schema.AttrEmail:    "e:",
	schema.AttrTitle:    "t:",
	schema.AttrYear:     "y:",
	schema.AttrPages:    "p:",
	schema.AttrLocation: "l:",
}

func elemPrefix(attr string) string {
	if p, ok := elemPrefixes[attr]; ok {
		return p
	}
	return "x:" + attr + ":"
}

// personConstrained reports constraints 2 and 3 of §5.3 on a person pair:
//
//  2. incompatible names (same first, completely different last, or vice
//     versa) make the references distinct unless they share an email;
//  3. two different accounts on the same email server belong to different
//     persons.
func (b *builder) personConstrained(r1, r2 *reference.Reference) bool {
	p1, p2 := b.parsedOf(r1), b.parsedOf(r2)
	for _, a1 := range p1.emails {
		for _, a2 := range p2.emails {
			if a1.Key() != "" && a1.Key() == a2.Key() {
				return false // shared account: hard positive key beats both constraints
			}
		}
	}
	for _, a1 := range p1.emails {
		for _, a2 := range p2.emails {
			if a1.Server() != "" && a1.Server() == a2.Server() && a1.Local != a2.Local {
				return true
			}
		}
	}
	anyIncompatible, anyCompatibleFull := false, false
	for _, x := range p1.names {
		for _, y := range p2.names {
			if names.Incompatible(x, y) {
				anyIncompatible = true
			} else if x.IsFull() && y.IsFull() && names.Compatible(x, y) {
				anyCompatibleFull = true
			}
		}
	}
	return anyIncompatible && !anyCompatibleFull
}

// venueConstrained reports the venue domain constraint: a venue
// reference denotes one *edition*, and an edition has a unique year, so two
// references whose years are flatly incompatible (differ by more than the
// off-by-one citation noise YearSim tolerates) are guaranteed distinct.
// Without this rule a single noisy cross-edition merge lets reference
// enrichment union the evidence of whole year ranges — the MAX rule then
// sees some agreeing year pair in every cluster and the editions collapse.
func (b *builder) venueConstrained(r1, r2 *reference.Reference) bool {
	y1 := r1.Atomic(schema.AttrYear)
	y2 := r2.Atomic(schema.AttrYear)
	if len(y1) == 0 || len(y2) == 0 {
		return false
	}
	// The constraint tolerates a gap of 2: citations misprint years by
	// one in either direction, so two mentions of one edition can be two
	// apart. A false constraint is costly — it permanently splits the
	// edition at the constrained closure — so this stays conservative.
	minGap, seen := 0, false
	for _, a := range y1 {
		for _, c := range y2 {
			if g, ok := simfn.YearGap(a, c); ok && (!seen || g < minGap) {
				minGap, seen = g, true
			}
		}
	}
	return seen && minGap > 2
}

// parsedPerson holds a person reference's parsed names and addresses.
type parsedPerson struct {
	names  []names.Name
	emails []emailaddr.Address
}

func (b *builder) parsedOf(r *reference.Reference) *parsedPerson {
	p, ok := b.parsed[r.ID]
	if !ok {
		p = &parsedPerson{}
		for _, raw := range r.Atomic(schema.AttrName) {
			p.names = append(p.names, names.Parse(raw))
		}
		for _, raw := range r.Atomic(schema.AttrEmail) {
			if a, ok := emailaddr.Parse(raw); ok {
				p.emails = append(p.emails, a)
			}
		}
		b.parsed[r.ID] = p
	}
	return p
}
