// Package indepdec names the INDEPDEC baseline of §5.2, a standard
// reference reconciliation approach in the spirit of merge/purge [21] and
// canopy-based reference matching [27], as the DepGraph configuration it
// is.
//
// INDEPDEC compares each pair of same-class references by their atomic
// attributes independently — names with names, emails with emails — with
// the same similarity functions and thresholds as DepGraph (§5.2). It
// never compares values across attributes, never consults associations,
// never propagates or enriches, and enforces no constraints; the final
// partition is the transitive closure of above-threshold pairs. That is
// the engine at Attr-wise evidence in Traditional mode with constraints
// off: the top-left cell of Table 5, whose partition count the paper
// reports as Table 4's IndepDec count (3159 on dataset A in both).
package indepdec

import "refrecon/internal/recon"

// Config returns the published settings (recon.DefaultConfig) moved to the
// baseline's cell of the ablation grid.
func Config() recon.Config {
	cfg := recon.DefaultConfig()
	cfg.Mode = recon.ModeTraditional
	cfg.Evidence = recon.EvidenceAttrWise
	cfg.Constraints = false
	return cfg
}
