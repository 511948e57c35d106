// Package refrecon is a Go implementation of collective reference
// reconciliation for complex information spaces, after Dong, Halevy, and
// Madhavan, "Reference Reconciliation in Complex Information Spaces"
// (SIGMOD 2005).
//
// Reference reconciliation decides when different references — partial
// descriptions extracted from heterogeneous sources — denote the same
// real-world entity. This library implements the paper's DepGraph
// algorithm: a dependency graph over pairwise similarity decisions with
// typed dependency edges, similarity propagation to a fixed point,
// reference enrichment, and negative-evidence constraints; plus the
// attribute-wise INDEPDEC baseline as one of its configurations, a metrics
// package, extractors for BibTeX and email corpora, and synthetic dataset
// generators reproducing the paper's evaluation.
//
// # Quick start
//
//	store := refrecon.NewStore()
//	p := refrecon.NewReference(refrecon.ClassPerson)
//	p.AddAtomic(refrecon.AttrName, "Michael Stonebraker")
//	store.Add(p)
//	// ... add more references, including associations ...
//
//	r := refrecon.New(refrecon.PIMSchema(), refrecon.DefaultConfig())
//	result, err := r.Reconcile(store)
//	// result.Partitions[refrecon.ClassPerson] lists the resolved entities.
//
// The packages under internal/ hold the implementation; this package is
// the supported surface.
package refrecon

import (
	"refrecon/internal/extract"
	"refrecon/internal/indepdec"
	"refrecon/internal/metrics"
	"refrecon/internal/recon"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

// Core model types.
type (
	// Schema declares the classes and attributes of an information space.
	Schema = schema.Schema
	// Class is one class of references.
	Class = schema.Class
	// Attribute is one attribute of a class.
	Attribute = schema.Attribute
	// Reference is a partial description of a real-world entity.
	Reference = reference.Reference
	// Store holds a dataset's references.
	Store = reference.Store
	// ID identifies a reference within a Store.
	ID = reference.ID
)

// Reconciliation types.
type (
	// Reconciler runs the DepGraph algorithm.
	Reconciler = recon.Reconciler
	// Config tunes the reconciler.
	Config = recon.Config
	// Mode selects propagation/enrichment (the §5.3 ablation axis).
	Mode = recon.Mode
	// EvidenceLevel selects the evidence set (the other ablation axis).
	EvidenceLevel = recon.EvidenceLevel
	// Result is the reconciliation outcome.
	Result = recon.Result
	// Report is a pairwise precision/recall evaluation.
	Report = metrics.Report
	// BCubedReport is a B-cubed (per-reference) evaluation.
	BCubedReport = metrics.BCubedReport
	// Session supports incremental reconciliation: add references to its
	// store between Reconcile calls (the paper's §7 future work).
	Session = recon.Session
	// Explanation describes why two references were (not) reconciled.
	Explanation = recon.Explanation
)

// Query-time reconciliation types: an immutable Snapshot of a
// reconciliation result plus a Matcher that scores ad-hoc queries against
// it without re-running the algorithm — the same machinery behind the
// HTTP reconciliation service (cmd/reconserve), usable as a library.
//
//	sess := r.NewSession(store)
//	sess.Reconcile()
//	snap, _ := sess.Snapshot()
//	m := refrecon.NewMatcher(sch, cfg, snap)
//	cands, _, _ := m.Match(refrecon.Query{Class: refrecon.ClassPerson,
//	    Atomic: map[string][]string{refrecon.AttrName: {"J. Smith"}}})
type (
	// Snapshot is an immutable export of a reconciliation result that
	// holds each fact once: every reference as one Reference (Ref), the
	// entity partition as canonical enriched entities with one
	// reference-to-entity index (Entities, EntityOf), and the merged-pair
	// evidence behind Explain. Obtain one from Session.Snapshot.
	Snapshot = recon.Snapshot
	// SnapEntity is one resolved entity inside a Snapshot: its member
	// references, canonical id, and merged attribute values.
	SnapEntity = recon.Entity
	// Matcher answers reconciliation queries against a Snapshot using the
	// same blocking and similarity functions as the batch algorithm.
	Matcher = recon.Matcher
	// Query is one reconciliation query: a class plus atomic attribute
	// values describing the entity sought.
	Query = recon.Query
	// MatchResult is one scored candidate entity for a query.
	MatchResult = recon.Candidate
	// MatchStats describes the work behind one Match call.
	MatchStats = recon.MatchStats
)

// NewMatcher builds a query matcher over a snapshot. cfg should be the
// configuration the snapshot was reconciled under, so query scoring uses
// the same thresholds and parameters.
func NewMatcher(sch *Schema, cfg Config, snap *Snapshot) *Matcher {
	return recon.NewMatcher(sch, cfg, snap)
}

// Sentinel errors, resolvable with errors.Is through every layer of the
// library (and mapped to HTTP statuses by the reconciliation service).
var (
	// ErrCanceled marks a reconciliation stopped by context cancellation.
	// Errors returned by Reconciler.ReconcileContext and
	// Session.CommitContext wrap both ErrCanceled and the context's own
	// ctx.Err(), so errors.Is matches either.
	ErrCanceled = recon.ErrCanceled
	// ErrSchemaViolation marks input that fails schema validation.
	ErrSchemaViolation = recon.ErrSchemaViolation
	// ErrBatchRejected marks an ingest batch refused before any reference
	// was applied.
	ErrBatchRejected = recon.ErrBatchRejected
)

// Modes.
const (
	ModeFull        = recon.ModeFull
	ModeTraditional = recon.ModeTraditional
	ModePropagation = recon.ModePropagation
	ModeMerge       = recon.ModeMerge
)

// Evidence levels.
const (
	EvidenceAttrWise  = recon.EvidenceAttrWise
	EvidenceNameEmail = recon.EvidenceNameEmail
	EvidenceArticle   = recon.EvidenceArticle
	EvidenceContact   = recon.EvidenceContact
)

// Built-in class and attribute names.
const (
	ClassPerson  = schema.ClassPerson
	ClassArticle = schema.ClassArticle
	ClassVenue   = schema.ClassVenue

	AttrName         = schema.AttrName
	AttrEmail        = schema.AttrEmail
	AttrCoAuthor     = schema.AttrCoAuthor
	AttrEmailContact = schema.AttrEmailContact
	AttrTitle        = schema.AttrTitle
	AttrYear         = schema.AttrYear
	AttrPages        = schema.AttrPages
	AttrLocation     = schema.AttrLocation
	AttrAuthoredBy   = schema.AttrAuthoredBy
	AttrPublishedIn  = schema.AttrPublishedIn
)

// PIMSchema returns the personal-information-management schema of the
// paper's Figure 1(a) (with Venue unifying conferences and journals).
func PIMSchema() *Schema { return schema.PIM() }

// CoraSchema returns the citation schema of the paper's Figure 5.
func CoraSchema() *Schema { return schema.Cora() }

// NewSchema builds a custom schema from classes.
func NewSchema(classes ...*Class) (*Schema, error) { return schema.New(classes...) }

// NewStore returns an empty reference store.
func NewStore() *Store { return reference.NewStore() }

// NewReference creates a reference of the given class (added to a store
// with Store.Add).
func NewReference(class string) *Reference { return reference.New(class) }

// New returns a DepGraph reconciler.
func New(sch *Schema, cfg Config) *Reconciler { return recon.New(sch, cfg) }

// DefaultConfig returns the paper's published parameters (§5.2): merge
// threshold 0.85, β = 0.1 (0.2 for venues), γ = 0.05, t_rv = 0.7
// (0.1 for venues), full mode, all evidence, constraints on.
func DefaultConfig() Config { return recon.DefaultConfig() }

// IndepDecConfig returns the attribute-wise INDEPDEC baseline of §5.2 as a
// DepGraph configuration: Attr-wise evidence, Traditional mode, no
// constraints, the published thresholds. Reconcile with New(sch,
// IndepDecConfig()).
func IndepDecConfig() Config { return indepdec.Config() }

// Evaluate scores predicted partitions of one class against the gold
// entity labels carried by the references.
func Evaluate(store *Store, class string, partitions [][]ID) Report {
	return metrics.Evaluate(store, class, partitions)
}

// EvaluateBCubed scores partitions under the B-cubed measure, which
// weights every reference equally rather than every pair.
func EvaluateBCubed(store *Store, class string, partitions [][]ID) BCubedReport {
	return metrics.BCubed(store, class, partitions)
}

// Extraction types: turn raw BibTeX and email text into references.
type (
	// Extractor accumulates references parsed from raw sources.
	Extractor = extract.Accumulator
	// BibEntry is a parsed BibTeX entry.
	BibEntry = extract.BibEntry
	// Message is a parsed email message header block.
	Message = extract.Message
	// Mailbox is one address occurrence in a message header.
	Mailbox = extract.Mailbox
	// Citation is a segmented free-text citation string.
	Citation = extract.Citation
	// VCard is a parsed address-book card.
	VCard = extract.VCard
)

// NewExtractor returns an extractor writing into store.
func NewExtractor(store *Store) *Extractor { return extract.NewAccumulator(store) }

// ParseBibTeX parses a BibTeX document.
func ParseBibTeX(src string) ([]BibEntry, error) { return extract.ParseBibTeX(src) }

// ParseMessage parses an RFC-2822-style message's headers.
func ParseMessage(src string) (Message, error) { return extract.ParseMessage(src) }

// ParseCitation heuristically segments a free-text citation string
// (LaTeX \bibitem / citation-index style) into authors, title, venue,
// year, and pages.
func ParseCitation(s string) (Citation, bool) { return extract.ParseCitation(s) }

// ParseVCards parses a vCard address-book stream.
func ParseVCards(src string) ([]VCard, error) { return extract.ParseVCards(src) }

// ParseBibItems extracts citation strings from a LaTeX thebibliography
// environment; feed them to ParseCitation (or use Extractor.AddBibItems).
func ParseBibItems(src string) []string { return extract.ParseBibItems(src) }
