// Package graphio serializes graphs for external tooling: Graphviz DOT
// (for visualizing healed topologies, with healing edges highlighted) and
// a plain edge-list format (one "u v" pair per line) that round-trips, so
// runs can be exported, archived and replayed.
package graphio

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
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

// WriteEdgeList emits g as a header line "n <N>" followed by one "u v"
// line per edge (u < v, sorted). Dead nodes are recorded as "dead <v>"
// lines so the full alive/dead state round-trips.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	lw := newLineWriter(w)
	lw.putStr("n ")
	lw.putInt(g.N())
	lw.end()
	for v := 0; v < g.N(); v++ {
		if !g.Alive(v) {
			lw.putStr("dead ")
			lw.putInt(v)
			lw.end()
		}
	}
	writeEdges(lw, "", g)
	return lw.close()
}

// writeEdges writes one "<prefix>u v" record per edge of g, u < v, in
// lexicographic order: each sorted row's neighbours above its own node.
func writeEdges(lw *lineWriter, prefix string, g *graph.Graph) {
	var head []byte
	for u := 0; u < g.N(); u++ {
		row := g.Neighbors(u)
		i, _ := slices.BinarySearch(row, int32(u))
		if i == len(row) {
			continue
		}
		head = strconv.AppendInt(append(head[:0], prefix...), int64(u), 10)
		head = append(head, ' ')
		for _, v := range row[i:] {
			lw.buf = append(lw.buf, head...)
			lw.putInt(int(v))
			lw.end()
		}
	}
}

// maxEdgeListNodes caps the node count an edge-list header may declare.
const maxEdgeListNodes = 1 << 20

// ReadEdgeList parses the format written by WriteEdgeList. The input is
// treated as untrusted: every structural inconsistency — out-of-range or
// self or duplicate edges, edges incident to a node declared dead,
// duplicate dead declarations — is a line-numbered error rather than a
// panic or a silent normalization, because a daemon restore endpoint must
// be able to feed this parser adversarial bytes and stay up. Every number
// is a whole field, read as strconv.Atoi reads it. The header may declare
// at most maxEdgeListNodes nodes, so a one-line "n 99999999999" cannot
// exhaust memory.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	lr := newLineReader(r)
	var g *graph.Graph
	var dead []bool
	for lr.next() {
		line := lr.line
		switch string(lr.f(0)) {
		case "n":
			if g != nil {
				return nil, fmt.Errorf("graphio: line %d: duplicate header", line)
			}
			n, ok := lr.atoi(1)
			if !ok || n < 0 || lr.nf != 2 {
				return nil, fmt.Errorf("graphio: line %d: bad header %q", line, lr.text())
			}
			if n > maxEdgeListNodes {
				return nil, fmt.Errorf("graphio: line %d: header declares %d nodes, above the %d-node limit", line, n, maxEdgeListNodes)
			}
			g = graph.New(n)
			dead = make([]bool, n)
		case "dead":
			if g == nil {
				return nil, fmt.Errorf("graphio: line %d: dead before header", line)
			}
			v, ok := lr.atoi(1)
			if !ok || lr.nf != 2 {
				return nil, fmt.Errorf("graphio: line %d: bad dead line %q", line, lr.text())
			}
			if v < 0 || v >= g.N() {
				return nil, fmt.Errorf("graphio: line %d: dead node %d out of range [0,%d)", line, v, g.N())
			}
			if dead[v] {
				return nil, fmt.Errorf("graphio: line %d: duplicate dead %d", line, v)
			}
			if g.Degree(v) > 0 {
				return nil, fmt.Errorf("graphio: line %d: dead node %d has earlier edges", line, v)
			}
			dead[v] = true
			g.RemoveNode(v)
		default:
			if g == nil {
				return nil, fmt.Errorf("graphio: line %d: edge before header", line)
			}
			u, ok1 := lr.atoi(0)
			v, ok2 := lr.atoi(1)
			if !ok1 || !ok2 || lr.nf != 2 {
				return nil, fmt.Errorf("graphio: line %d: bad edge %q", line, lr.text())
			}
			if u < 0 || v < 0 || u >= g.N() || v >= g.N() || u == v {
				return nil, fmt.Errorf("graphio: line %d: edge %d-%d out of range", line, u, v)
			}
			if dead[u] || dead[v] {
				return nil, fmt.Errorf("graphio: line %d: edge %d-%d touches a dead node", line, u, v)
			}
			if !g.AddEdge(u, v) {
				return nil, fmt.Errorf("graphio: line %d: duplicate edge %d-%d", line, u, v)
			}
		}
	}
	if err := lr.err(); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	if g == nil {
		return nil, fmt.Errorf("graphio: missing header")
	}
	return g, nil
}
