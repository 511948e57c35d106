package pim

// Region styles a person's name.
type Region int

const (
	// US names: long pool of first and last names, nicknames, middle
	// initials.
	US Region = iota
	// Chinese names: short pinyin given names over a small surname pool —
	// heavy overlap, the reconciliation difficulty the paper reports for
	// dataset C.
	Chinese
	// Indian names: long given and family names.
	Indian
)

// Profile parameterizes one synthetic dataset. Counts are specified at
// scale 1.0 and multiplied by Scale.
type Profile struct {
	// Name labels the dataset ("A".."D" for the paper profiles).
	Name string
	// Seed makes generation deterministic.
	Seed int64
	// Scale multiplies Persons, Messages, Articles, and MailingLists.
	Scale float64

	// Persons is the number of real person entities (the owner included).
	Persons int
	// RegionWeights gives the sampling mix of name styles.
	RegionWeights map[Region]float64
	// NameVariety is the maximum number of distinct name presentations a
	// person uses across the corpus (dataset A is the high-variety one).
	NameVariety int
	// TypoRate is the probability that a rendered name carries a typo.
	TypoRate float64
	// SecondAccountRate is the probability a person has a second email
	// account (on a different server: the generated world obeys
	// constraint 3 except where OwnerNameChange violates it).
	SecondAccountRate float64
	// NoNameRate is the probability a mailbox is rendered without a
	// display name.
	NoNameRate float64
	// NameCollisionRate is the fraction of persons deliberately given the
	// exact name of another person (dataset C's overlap).
	NameCollisionRate float64
	// TwoSyllableGiven is the probability a Chinese given name is a
	// distinctive two-syllable compound rather than a short, heavily
	// shared single syllable (dataset C keeps this low).
	TwoSyllableGiven float64

	// Messages is the number of email messages rendered.
	Messages int
	// CircleSize is the number of frequent contacts per person.
	CircleSize int

	// Articles is the number of real article entities.
	Articles int
	// AuthorFraction is the fraction of persons who author articles.
	AuthorFraction float64
	// MaxCitations bounds how many BibTeX entries cite one article
	// (uniform 1..MaxCitations).
	MaxCitations int
	// TitleNoiseRate is the probability a citation's title is perturbed.
	TitleNoiseRate float64

	// MailingLists is the number of mailing-list pseudo-persons.
	MailingLists int
	// OwnerNameChange makes the owner change her last name and open a new
	// account on the *same* server halfway through the corpus (dataset D:
	// the one world fact that violates constraint 3, causing the
	// paper-reported recall regression under constraints).
	OwnerNameChange bool
}

func (p Profile) scaled(n int) int {
	s := p.Scale
	if s <= 0 {
		s = 1
	}
	v := int(float64(n)*s + 0.5)
	if v < 1 && n > 0 {
		v = 1
	}
	return v
}

// DatasetA is the highest-variety dataset: many name presentations and
// accounts per person. DepGraph's gains are largest here (Table 4: recall
// 0.741 -> 0.999).
func DatasetA(scale float64) Profile {
	return Profile{
		Name: "A", Seed: 0xA, Scale: scale,
		Persons:       1750,
		RegionWeights: map[Region]float64{US: 0.7, Chinese: 0.15, Indian: 0.15},
		NameVariety:   6, TypoRate: 0.04, SecondAccountRate: 0.45, NoNameRate: 0.18,
		TwoSyllableGiven: 0.8,
		Messages:         6000, CircleSize: 9,
		Articles: 700, AuthorFraction: 0.12, MaxCitations: 3, TitleNoiseRate: 0.2,
		MailingLists: 6,
	}
}

// DatasetB is the large, lower-variety dataset (Table 4: both algorithms
// near-perfect, DepGraph slightly ahead).
func DatasetB(scale float64) Profile {
	return Profile{
		Name: "B", Seed: 0xB, Scale: scale,
		Persons:       1989,
		RegionWeights: map[Region]float64{US: 0.4, Indian: 0.5, Chinese: 0.1},
		NameVariety:   3, TypoRate: 0.01, SecondAccountRate: 0.2, NoNameRate: 0.1,
		TwoSyllableGiven: 0.8,
		Messages:         9000, CircleSize: 10,
		Articles: 800, AuthorFraction: 0.1, MaxCitations: 3, TitleNoiseRate: 0.1,
		MailingLists: 4,
	}
}

// DatasetC is the Chinese-owner dataset: short given names over a small
// surname pool with deliberate exact-name collisions, which depresses
// precision (Table 4's discussion).
func DatasetC(scale float64) Profile {
	return Profile{
		Name: "C", Seed: 0xC, Scale: scale,
		Persons:       1570,
		RegionWeights: map[Region]float64{Chinese: 0.75, US: 0.2, Indian: 0.05},
		NameVariety:   3, TypoRate: 0.02, SecondAccountRate: 0.25, NoNameRate: 0.15,
		NameCollisionRate: 0.02, TwoSyllableGiven: 0.2,
		Messages: 4500, CircleSize: 8,
		Articles: 550, AuthorFraction: 0.12, MaxCitations: 3, TitleNoiseRate: 0.15,
		MailingLists: 4,
	}
}

// DatasetD is the name-change dataset: the owner changes her last name and
// her account on the same email server when she marries, so constraint 3
// splits her references (Table 4: DepGraph recall drops to ~0.92 while
// precision rises).
func DatasetD(scale float64) Profile {
	return Profile{
		Name: "D", Seed: 0xD, Scale: scale,
		Persons:       1518,
		RegionWeights: map[Region]float64{US: 0.6, Indian: 0.25, Chinese: 0.15},
		NameVariety:   4, TypoRate: 0.02, SecondAccountRate: 0.3, NoNameRate: 0.12,
		TwoSyllableGiven: 0.8,
		Messages:         5000, CircleSize: 9,
		Articles: 600, AuthorFraction: 0.12, MaxCitations: 3, TitleNoiseRate: 0.15,
		MailingLists:    5,
		OwnerNameChange: true,
	}
}

// Scaled builds a profile calibrated to generate approximately refs
// references — the knob the sharded-reconciliation benchmarks turn
// (100k–1M refs) rather than the paper's entity counts.
//
//   - dup is the duplicate rate: the average number of references
//     mentioning each real person (higher dup, fewer entities, denser
//     components).
//   - assoc is the cross-class association density: the fraction of
//     references that come from the bibliography side (articles, venues,
//     cited authors), whose association edges are what cross shard
//     boundaries.
//
// Generation is deterministic under a fixed seed: the same (refs, dup,
// assoc, seed) always yields the same corpus. The realized reference
// count lands near the target, not exactly on it — message recipient
// counts and citation fan-out are drawn per item.
func Scaled(refs int, dup, assoc float64, seed int64) Profile {
	if refs < 1 {
		refs = 1
	}
	if dup < 1 {
		dup = 3
	}
	if assoc < 0 {
		assoc = 0
	}
	if assoc > 0.9 {
		assoc = 0.9
	}
	personRefs := float64(refs) * (1 - assoc)
	articleRefs := float64(refs) * assoc
	const (
		refsPerMessage  = 3 // one sender plus 1+Intn(3) recipients
		refsPerCitation = 4 // the article, about two authors, one venue
		maxCitations    = 3 // citations per article: uniform 1..3, mean 2
	)
	persons := int(personRefs/dup + 0.5)
	if persons < 8 {
		persons = 8
	}
	articles := int(articleRefs/refsPerCitation/((1+maxCitations)/2.0) + 0.5)
	lists := persons / 400
	if lists < 4 {
		lists = 4
	}
	return Profile{
		Name: "scaled", Seed: seed, Scale: 1,
		Persons:       persons,
		RegionWeights: map[Region]float64{US: 0.6, Indian: 0.25, Chinese: 0.15},
		NameVariety:   4, TypoRate: 0.02, SecondAccountRate: 0.3, NoNameRate: 0.12,
		TwoSyllableGiven: 0.8,
		Messages:         int(personRefs/refsPerMessage + 0.5),
		CircleSize:       9,
		Articles:         articles,
		AuthorFraction:   0.12, MaxCitations: maxCitations, TitleNoiseRate: 0.15,
		MailingLists: lists,
	}
}

// GenerateScaled generates a corpus of approximately refs references.
// Scaled's arithmetic predicts counts from entity counts, but the email
// extractor dedupes person references on exact presentation, so the
// realized count lands well under the linear estimate on dense corpora.
// GenerateScaled corrects for that: it generates once, rescales the
// entity counts by the observed ratio when the result misses the target
// by more than 10%, and regenerates. Both passes are deterministic, so a
// fixed (refs, dup, assoc, seed) tuple always yields the same corpus.
func GenerateScaled(refs int, dup, assoc float64, seed int64) (*Generated, error) {
	p := Scaled(refs, dup, assoc, seed)
	g, err := Generate(p)
	if err != nil {
		return nil, err
	}
	realized := g.Store.Len()
	if realized == 0 || (realized >= refs-refs/10 && realized <= refs+refs/10) {
		return g, nil
	}
	adj := float64(refs) / float64(realized)
	p.Persons = int(float64(p.Persons)*adj + 0.5)
	p.Messages = int(float64(p.Messages)*adj + 0.5)
	p.Articles = int(float64(p.Articles)*adj + 0.5)
	return Generate(p)
}
