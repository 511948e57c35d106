package depgraph

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteDOT renders the live graph (or the subgraph accepted by filter,
// when non-nil) in Graphviz DOT format for debugging and documentation.
// Reference pairs are boxes, value pairs are ellipses; merged nodes are
// green, non-merge nodes red. Edge styles encode dependency types:
// solid = real-valued, bold = strong-boolean, dashed = weak-boolean.
// Output is deterministic (nodes and edges sorted by key).
func (g *Graph) WriteDOT(w io.Writer, filter func(*Node) bool) error {
	var nodes []*Node
	g.Nodes(func(n *Node) {
		if filter == nil || filter(n) {
			nodes = append(nodes, n)
		}
	})
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Key() < nodes[j].Key() })
	included := make(map[*Node]bool, len(nodes))
	for _, n := range nodes {
		included[n] = true
	}

	if _, err := fmt.Fprintln(w, "digraph depgraph {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=LR;")
	for _, n := range nodes {
		shape := "ellipse"
		if n.Kind() == RefPair {
			shape = "box"
		}
		color := "black"
		switch n.Status() {
		case Merged:
			color = "green4"
		case NonMerge:
			color = "red3"
		case Active:
			color = "blue3"
		}
		fmt.Fprintf(w, "  %s [shape=%s color=%s label=%s];\n",
			dotID(n.Key()), shape, color,
			dotString(fmt.Sprintf("%s\n%.2f %s", n.Key(), n.Sim(), n.Status())))
	}
	var lines []string
	for _, n := range nodes {
		n.EachOut(func(e Edge) {
			if !included[e.To] {
				return
			}
			style := "solid"
			switch e.Dep {
			case StrongBoolean:
				style = "bold"
			case WeakBoolean:
				style = "dashed"
			}
			lines = append(lines, fmt.Sprintf("  %s -> %s [style=%s label=%s];",
				dotID(n.Key()), dotID(e.To.Key()), style, dotString(e.Evidence)))
		})
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// dotID makes a key safe as a DOT identifier by quoting it.
func dotID(key string) string { return dotString(key) }

func dotString(s string) string {
	return `"` + strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(s) + `"`
}
