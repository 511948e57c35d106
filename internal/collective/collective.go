// Package collective implements query-time collective reconciliation:
// bounded expand-and-resolve after Bhattacharya & Getoor's query-time
// entity resolution, layered on the dependency-graph propagation engine.
//
// The serve-path Matcher scores a query against stored entities with
// entity-level MAX over attribute similarity only — none of the paper's
// relational evidence reaches query time, so a query whose attributes are
// ambiguous but whose associations are decisive lands on the wrong
// entity. Resolve fixes that locally: starting from the query reference
// it expands a bounded neighborhood (the query's blocking candidates,
// their association targets, those targets' own candidates), materializes
// a small dependency graph over just that subgraph, seeds the stored
// pairs with the snapshot's frozen decisions, and runs the §3.2
// similarity-propagation fixed point under a hard node/step/time budget.
// The result is a collectively-informed score per hop-0 candidate.
//
// Budgets degrade, never error: when any budget is exhausted the Result
// reports Degraded with a reason and carries no scores, and the caller
// falls back to its attribute-only scoring path. The node and step
// budgets are count-based, so whether they trip is a pure function of the
// query and the snapshot; only the optional wall-clock budget can differ
// between runs, and it only ever selects between the full collective
// result and the (equally deterministic) fallback.
//
// The package is deliberately ignorant of how references are stored and
// scored: the Host interface supplies candidates, associations, evidence
// wiring, frozen pair decisions, and the scorer and merge thresholds of the
// fixed point. internal/recon adapts a Snapshot+Matcher pair to it.
package collective

import (
	"time"

	"refrecon/internal/depgraph"
	"refrecon/internal/obs"
	"refrecon/internal/reference"
)

// Host supplies the reference universe Resolve expands over. All methods
// must be deterministic for a fixed snapshot: slices come back in a
// stable order, repeated calls agree, and Resolve only reads them (a host
// may share them between queries). Implementations need not be safe for
// concurrent use; Resolve is single-threaded.
type Host interface {
	// Candidates returns the blocking candidates of id (stored references
	// sharing a blocking key), sorted ascending, excluding id itself.
	Candidates(id reference.ID) []reference.ID

	// ClassOf returns the class of id, or "" if unknown.
	ClassOf(id reference.ID) string

	// EachAssoc visits id's association attributes in a stable order with
	// their target reference ids. Implementations apply any domain
	// pooling here (e.g. the paper's coAuthor ∪ emailContact contact
	// pool) so Resolve sees the already-aligned attribute names.
	EachAssoc(id reference.ID, fn func(attr string, targets []reference.ID))

	// AssocEvidence maps an association attribute of class to the
	// propagation edge it induces between a reference pair and its target
	// pair: the forward evidence label and dependency type (target pair →
	// source pair), plus an optional back-propagation evidence label (a
	// StrongBoolean edge source pair → target pair; "" for none). ok
	// reports whether the attribute carries relational evidence at all.
	AssocEvidence(class, attr string) (evidence string, dep depgraph.DepType, backEvidence string, ok bool)

	// WireAttrEvidence attaches attribute-similarity evidence for the
	// pair (a, b) to its RefPair node n: value-pair nodes and the edges
	// connecting them, exactly as the offline builder wires them. It
	// reports whether any evidence was attached.
	WireAttrEvidence(g *depgraph.Graph, n *depgraph.Node, a, b reference.ID) bool

	// Frozen returns the snapshot's decision for the stored pair (a, b):
	// its converged similarity and whether it ended merged or non-merge.
	// ok is false when the snapshot holds no information on the pair
	// (including when either id is not a stored reference).
	Frozen(a, b reference.ID) (sim float64, merged, nonMerge, ok bool)

	// EngineOptions returns the propagation-engine options offline
	// reconciliation ran with. Resolve takes the scorer and the merge
	// thresholds from them, so the local fixed point is the offline model
	// on a neighborhood.
	EngineOptions() depgraph.Options
}

// MaxNeighbors caps the blocking candidates considered per association
// target during sibling expansion (the sorted candidate list is
// truncated).
const MaxNeighbors = 8

// Config bounds a Resolve call. The zero value is usable: WithDefaults
// fills every unset field.
type Config struct {
	// MaxHops bounds the expansion depth, counted in reference-pair hops
	// from the query: hop 0 is (query, candidate), hop 1 the association
	// target pairs of hop 0, and so on. Association expansion runs while
	// hop < MaxHops; sibling candidate pairs of targets materialize one
	// level deeper and contribute through frozen decisions and
	// enrichment. Default 2.
	MaxHops int

	// MaxNodes is the hard cap on materialized RefPair nodes. Hitting it
	// degrades the query. Default 512.
	MaxNodes int

	// Budget is the wall-clock limit for the whole expand-and-resolve; 0
	// means no time limit. The deadline is checked at expansion steps and
	// propagation-round boundaries, so the overshoot is one round at
	// most. The only nondeterministic budget — see the package comment.
	Budget time.Duration

	// MaxSteps caps propagation-engine node evaluations; 0 uses the
	// engine default (1000 × node count). Exceeding it degrades.
	MaxSteps int

	// Obs receives counters and per-query trace spans. Nil disables
	// observability.
	Obs *obs.Observer
}

// WithDefaults returns c with every unset field set to its default.
func (c Config) WithDefaults() Config {
	if c.MaxHops <= 0 {
		c.MaxHops = 2
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 512
	}
	return c
}

// Request names the query reference. The id must be outside the stored
// id space (recon uses Snapshot.RefCount()); the Host resolves it to the
// ad-hoc query reference.
type Request struct {
	Query reference.ID
}

// Result is the outcome of one Resolve call.
type Result struct {
	// Scores maps each hop-0 candidate to its collectively-informed
	// similarity with the query, after propagation and enrichment. Nil
	// when the run degraded.
	Scores map[reference.ID]float64
	Stats  Stats
}

// Stats describes what one Resolve call did.
type Stats struct {
	Candidates   int // hop-0 blocking candidates of the query
	ExpandedRefs int // distinct stored references in the neighborhood
	PairNodes    int // RefPair nodes materialized (≤ MaxNodes)
	ValueNodes   int // attribute-evidence ValuePair nodes materialized
	MaxHop       int // deepest hop reached

	// Propagation-engine activity over the local subgraph.
	Rounds int
	Steps  int
	Merges int
	Folds  int

	// Degraded is set when a budget was exhausted; Reason is "nodes",
	// "steps", or "time". A degraded result carries no scores and the
	// caller falls back to attribute-only scoring.
	Degraded bool
	Reason   string

	ExpandMS  float64 // wall-clock spent expanding the neighborhood
	ResolveMS float64 // wall-clock spent in the propagation fixed point
}
