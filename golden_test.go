// Golden outputs: the partition hash and the graph/engine counters of a
// one-shot Reconcile on PIM A–D and Cora at test scale, and on a 300-
// reference catalog (the default row of the class model: a schema none of
// whose classes has a row of its own). The PIM and Cora values were
// recorded on the commit before the depgraph edge store lost its global
// edge hash, the Catalog row on the commit before the class model became
// one table, so "output identical to the parent" is a test rather than a
// claim. A change that moves one of them on purpose re-records the table
// with `go test -run TestGoldenOutputs -v` (every run logs its row).
//
// The same runs hold the scan that replaced the hash to its measured
// cost: at most 16 edges examined per AddEdge call, on average.
package refrecon_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"refrecon/internal/datagen/catalog"
	"refrecon/internal/recon"
	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

type goldenRow struct {
	partitionSHA string // SHA-256 of canonPartitions
	nodes, edges int    // graph size right after construction
	steps        int
	merges       int
	folds        int
}

var goldenOutputs = map[string]goldenRow{
	"PIM-A":   {"84da052bbbec92c8142657c0920813348b10acfd751a23777e40660feca2b80e", 10852, 23522, 2869, 806, 5991},
	"PIM-B":   {"44e8f2661bff825f3adff4cd83989bbab5d6c11801cb0e6be6c5258101ac9544", 11105, 21987, 2938, 763, 5619},
	"PIM-C":   {"7d5e0c50c7f46da728ca49f39ceb95cb830823e19adbf7233a9fb3364d8f71dc", 6790, 12900, 1797, 490, 3523},
	"PIM-D":   {"9ec649d232da97cec6aae8e7af30cd771bf94fde8963c1b586274e6710872c24", 7233, 14911, 1797, 629, 3691},
	"Cora":    {"8777b11eb5957df3c9d3c672b30d361d093a423aa46df2ee076235087f1af7d1", 9434, 31369, 1029, 469, 8174},
	"Catalog": {"4abbf381fa4721ac1d03efd921c438132e15923bccd2ca95d07fe5a7cabb2492", 10143, 10332, 2805, 273, 3544},
}

func TestGoldenOutputs(t *testing.T) {
	stores := map[string]*reference.Store{"Cora": suite().Cora().Store}
	for _, d := range []string{"A", "B", "C", "D"} {
		stores["PIM-"+d] = suite().PIM(d).Store
	}
	cat, err := catalog.Generate(catalog.Default(300, 1))
	if err != nil {
		t.Fatal(err)
	}
	stores["Catalog"] = cat.Store
	for name, want := range goldenOutputs {
		sch := schema.PIM()
		if name == "Catalog" {
			sch = schema.Catalog()
		}
		res, err := recon.New(sch, recon.DefaultConfig()).Reconcile(stores[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := res.Stats
		got := goldenRow{
			partitionSHA: fmt.Sprintf("%x", sha256.Sum256([]byte(canonPartitions(res.Partitions)))),
			nodes:        st.GraphNodes, edges: st.GraphEdges,
			steps: st.Engine.Steps, merges: st.Engine.Merges, folds: st.Engine.Folds,
		}
		t.Logf("%q: {%q, %d, %d, %d, %d, %d},", name, got.partitionSHA, got.nodes, got.edges, got.steps, got.merges, got.folds)
		if got != want {
			t.Errorf("%s: got %+v, recorded %+v", name, got, want)
		}
		if adds, probes := st.Engine.EdgeAdds, st.Engine.DedupProbes; adds == 0 || probes > 16*adds {
			t.Errorf("%s: dedup scans examined %d edges over %d AddEdge calls, want a mean of at most 16", name, probes, adds)
		}
	}
}
