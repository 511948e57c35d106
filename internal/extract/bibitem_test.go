package extract

import (
	"strings"
	"testing"

	"refrecon/internal/reference"
	"refrecon/internal/schema"
)

const sampleLatex = `
\section{Conclusions}
We thank everyone. % including the reviewers

\begin{thebibliography}{10}

\bibitem{agrawal94}
R.~Agrawal and R.~Srikant.
\newblock Fast algorithms for mining association rules.
\newblock In {\em Proc. VLDB}, pages 487--499, 1994.

\bibitem[DHM05]{dong05}
Dong, X., Halevy, A. and Madhavan, J.
\newblock Reference reconciliation in complex information spaces.
\newblock In Proceedings of SIGMOD, 2005. % seminal

\end{thebibliography}
\end{document}
`

func TestParseBibItems(t *testing.T) {
	items := ParseBibItems(sampleLatex)
	if len(items) != 2 {
		t.Fatalf("items = %d: %q", len(items), items)
	}
	if !strings.Contains(items[0], "Fast algorithms for mining association rules") {
		t.Errorf("item 0 = %q", items[0])
	}
	if strings.ContainsAny(items[0], "{}~\\") {
		t.Errorf("markup survived: %q", items[0])
	}
	if strings.Contains(items[1], "seminal") {
		t.Errorf("comment survived: %q", items[1])
	}
	if !strings.Contains(items[0], "487-499") {
		t.Errorf("page dashes not normalized: %q", items[0])
	}
}

func TestParseBibItemsWithoutEnvironment(t *testing.T) {
	items := ParseBibItems(`\bibitem{x} A. Author. Some title. Venue, 1999.`)
	if len(items) != 1 {
		t.Fatalf("items = %v", items)
	}
	if ParseBibItems("no bibliography here") != nil {
		t.Error("no markers should yield nil")
	}
}

func TestAddBibItems(t *testing.T) {
	store := reference.NewStore()
	acc := NewAccumulator(store)
	refs := acc.AddBibItems(sampleLatex)
	if len(refs) != 2 {
		t.Fatalf("extracted %d citations", len(refs))
	}
	art := store.Get(refs[0].Article)
	if art.FirstAtomic(schema.AttrTitle) != "Fast algorithms for mining association rules" {
		t.Errorf("title = %q", art.FirstAtomic(schema.AttrTitle))
	}
	if len(refs[0].Authors) != 2 || len(refs[1].Authors) != 3 {
		t.Errorf("author counts: %d, %d", len(refs[0].Authors), len(refs[1].Authors))
	}
	if art.FirstAtomic(schema.AttrYear) != "1994" {
		t.Errorf("year = %q", art.FirstAtomic(schema.AttrYear))
	}
	if err := store.Validate(schema.PIM(), 0); err != nil {
		t.Fatal(err)
	}
}
