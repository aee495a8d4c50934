// Package graphio serializes graphs and healing state: Graphviz DOT for
// visualizing healed topologies, with healing edges highlighted, and the
// snapshot format (snapshot.go) that round-trips a network's full
// healing state, the daemon's snapshot/restore wire format.
package graphio

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/graph"
)

// DOT renders g as an undirected Graphviz graph. Edges also present in
// highlight (typically the healing forest G′) are drawn red and bold;
// pass nil to skip highlighting. Dead nodes are omitted.
func DOT(w io.Writer, name string, g, highlight *graph.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "graph %s {\n", sanitizeID(name))
	fmt.Fprintf(bw, "  node [shape=circle fontsize=10];\n")
	for _, v := range g.AliveNodes() {
		fmt.Fprintf(bw, "  n%d;\n", v)
	}
	for _, e := range g.Edges() {
		if highlight != nil && highlight.HasEdge(e[0], e[1]) {
			fmt.Fprintf(bw, "  n%d -- n%d [color=red penwidth=2];\n", e[0], e[1])
		} else {
			fmt.Fprintf(bw, "  n%d -- n%d;\n", e[0], e[1])
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// sanitizeID makes name a valid DOT identifier.
func sanitizeID(name string) string {
	if name == "" {
		return "g"
	}
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
