// Package recon implements the paper's reconciliation algorithm (DepGraph):
// dependency-graph construction over candidate reference pairs (§3.1),
// similarity propagation to a fixed point (§3.2), reference enrichment
// (§3.3), constraint enforcement (§3.4), and the final transitive closure.
//
// The ablation axes of §5.3 are first-class configuration: Mode toggles
// reconciliation propagation and reference enrichment independently, and
// EvidenceLevel cumulatively enables the four evidence variations
// (Attr-wise, Name&Email, Article, Contact).
package recon

import (
	"fmt"
	"strings"

	"refrecon/internal/obs"
)

// Mode selects which of the two decision-coupling mechanisms run (the §5.3
// mode dimension).
type Mode int

const (
	// ModeFull applies both reconciliation propagation and reference
	// enrichment (the full DepGraph algorithm).
	ModeFull Mode = iota
	// ModeTraditional applies neither: every similarity is computed once,
	// in dependency order.
	ModeTraditional
	// ModePropagation applies only reconciliation propagation.
	ModePropagation
	// ModeMerge applies only reference enrichment.
	ModeMerge
)

func (m Mode) String() string {
	switch m {
	case ModeTraditional:
		return "Traditional"
	case ModePropagation:
		return "Propagation"
	case ModeMerge:
		return "Merge"
	default:
		return "Full"
	}
}

// propagate reports whether the mode re-activates dependent decisions.
func (m Mode) propagate() bool { return m == ModeFull || m == ModePropagation }

// enrich reports whether the mode folds enriched references.
func (m Mode) enrich() bool { return m == ModeFull || m == ModeMerge }

// EvidenceLevel cumulatively enables evidence sources (the §5.3 evidence
// dimension). Each level includes all earlier ones.
type EvidenceLevel int

const (
	// EvidenceAttrWise compares same-attribute values only (names with
	// names, emails with emails, ...).
	EvidenceAttrWise EvidenceLevel = iota
	// EvidenceNameEmail adds cross-attribute comparison of person names
	// against email addresses.
	EvidenceNameEmail
	// EvidenceArticle adds the person-article association: reconciled
	// articles push their aligned authors together.
	EvidenceArticle
	// EvidenceContact adds shared co-authors and email contacts as weak
	// evidence. This is the complete DepGraph evidence set.
	EvidenceContact
)

func (e EvidenceLevel) String() string {
	switch e {
	case EvidenceAttrWise:
		return "Attr-wise"
	case EvidenceNameEmail:
		return "Name&Email"
	case EvidenceArticle:
		return "Article"
	default:
		return "Contact"
	}
}

// ParseEvidenceLevel is String's inverse. It also accepts the command-line
// spellings attr, nameemail, article and contact, in any letter case.
func ParseEvidenceLevel(s string) (EvidenceLevel, error) {
	for e, short := range [...]string{"attr", "nameemail", "article", "contact"} {
		if strings.EqualFold(s, short) || s == EvidenceLevel(e).String() {
			return EvidenceLevel(e), nil
		}
	}
	return 0, fmt.Errorf("unknown evidence level %q", s)
}

// The merge thresholds of §5.2, fixed settings of the algorithm: a reference
// pair merges at 0.85, an attribute-value pair at 1.0 (identical values only).
const refMergeThreshold, attrMergeThreshold = 0.85, 1.0

// Config collects all tunable parameters. DefaultConfig returns the
// published §5.2 settings.
type Config struct {
	// Mode selects propagation/enrichment (default ModeFull).
	Mode Mode
	// Evidence selects the evidence level (default EvidenceContact).
	Evidence EvidenceLevel
	// Constraints enables the three negative-evidence constraints of §5.3
	// and the post-fixed-point non-merge propagation of §3.4.
	Constraints bool
	// BucketCap bounds blocking bucket sizes (0 = unlimited).
	BucketCap int
	// Workers is the number of goroutines scoring candidate-pair attribute
	// similarities during graph construction (0 = runtime.NumCPU(), 1 =
	// fully serial). A pure throughput knob: every worker count produces
	// bit-identical graphs, merge partitions, and stats — workers score
	// independent items into per-item slots and all graph mutation stays
	// on one goroutine.
	Workers int
	// Shards controls sharded reconciliation of Reconcile /
	// ReconcileContext: the freshly built graph is cut into closed
	// components, which share no evidence during propagation (package
	// shard), the components are grouped into this many balanced shards,
	// and one propagation engine runs per shard concurrently. Every value
	// gives the monolithic answer (see DESIGN.md, "Sharded
	// reconciliation"); 1 — the default — runs one engine over the whole
	// graph, and 0 resolves to runtime.GOMAXPROCS(0). Incremental Sessions
	// always run the monolithic path: components drift and merge across
	// batches, so a per-batch re-split would forfeit the retained graph the
	// session exists to keep.
	Shards int
	// Audit runs the structural invariant auditor (package audit) at every
	// phase boundary — after graph construction, after the propagation
	// fixed point, and after the transitive closure. A violation aborts the
	// run with a descriptive error. The graph checks cost one extra scan of
	// nodes and edges per phase; leave Audit off in production-scale runs
	// and on in CI and while bisecting a suspected consistency bug.
	Audit bool
	// Obs attaches the observability layer (package obs): span tracing,
	// counters, progress events, pprof phase labels. Nil — the default —
	// disables every facet at the cost of pointer comparisons; no
	// observability code allocates or touches atomics when Obs is nil, so
	// the zero-alloc hot-path pins hold. Observation never changes
	// results: runs with and without Obs produce identical partitions and
	// (deterministic) stats.
	Obs *obs.Observer
}

// DefaultConfig returns the full algorithm with the published parameters.
func DefaultConfig() Config {
	return Config{
		Mode:        ModeFull,
		Evidence:    EvidenceContact,
		Constraints: true,
		BucketCap:   512,
		Shards:      1,
	}
}
