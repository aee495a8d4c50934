package graphio

// The snapshot codec as first written, kept only as the reference the
// single-pass ReadSnapshot and the append-based WriteSnapshot are
// checked against (FuzzReadSnapshot, TestReadSnapshotMatchesReference).

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// writeSnapshotRef is the fmt-based encoder WriteSnapshot replaced,
// kept as the reference its bytes are compared with.
func writeSnapshotRef(w io.Writer, s *Snapshot) error {
	if err := checkShape(s); err != nil {
		return fmt.Errorf("graphio: refusing to write inconsistent snapshot: %w", err)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, snapshotMagic)
	n := s.G.N()
	fmt.Fprintf(bw, "n %d\n", n)
	for v := 0; v < n; v++ {
		if !s.G.Alive(v) {
			fmt.Fprintf(bw, "dead %d\n", v)
		}
	}
	for v := 0; v < n; v++ {
		if s.G.Alive(v) {
			fmt.Fprintf(bw, "node %d %d %d %d\n", v, s.InitID[v], s.CurID[v], s.InitDeg[v])
		}
	}
	for _, e := range s.G.Edges() {
		fmt.Fprintf(bw, "g %d %d\n", e[0], e[1])
	}
	for _, e := range s.Gp.Edges() {
		fmt.Fprintf(bw, "gp %d %d\n", e[0], e[1])
	}
	return bw.Flush()
}

// readSnapshotRef is the line-at-a-time reader ReadSnapshot replaced:
// strings.TrimSpace and strings.Fields per line, strconv per field, one
// AddEdge per edge record and a map for initial-ID uniqueness. It is
// kept as the reference ReadSnapshot must agree with, input for input:
// the same verdict, and on acceptance the same state.
func readSnapshotRef(r io.Reader, maxNodes int) (*Snapshot, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	line := 0

	// scan returns the next non-blank, non-comment line.
	scan := func() (string, bool) {
		for sc.Scan() {
			line++
			text := strings.TrimSpace(sc.Text())
			if text == "" || strings.HasPrefix(text, "#") {
				continue
			}
			return text, true
		}
		return "", false
	}
	errf := func(format string, args ...any) error {
		return fmt.Errorf("graphio: line %d: %s", line, fmt.Sprintf(format, args...))
	}

	text, ok := scan()
	if !ok || text != snapshotMagic {
		return nil, errf("missing %q header (got %q)", snapshotMagic, text)
	}
	text, ok = scan()
	if !ok {
		return nil, errf("missing n record")
	}
	fields := strings.Fields(text)
	if len(fields) != 2 || fields[0] != "n" {
		return nil, errf("want \"n <N>\", got %q", text)
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 0 {
		return nil, errf("bad node count %q", fields[1])
	}
	if maxNodes > 0 && n > maxNodes {
		return nil, errf("snapshot declares %d nodes, above the %d-node limit", n, maxNodes)
	}

	s := &Snapshot{
		G: graph.New(n), Gp: graph.New(n),
		InitID: make([]uint64, n), CurID: make([]uint64, n), InitDeg: make([]int, n),
	}
	hasNode := make([]bool, n)
	seenID := make(map[uint64]int, n) // initID -> node, uniqueness guard
	stage := secHeader

	parseNode := func(f string) (int, error) {
		v, err := strconv.Atoi(f)
		if err != nil || v < 0 || v >= n {
			return 0, errf("node %q out of range [0,%d)", f, n)
		}
		return v, nil
	}
	// advance enforces the fixed section order so that every record can be
	// validated against completed earlier sections in a single pass.
	advance := func(to int, kind string) error {
		if to < stage {
			return errf("%s record after a later section", kind)
		}
		stage = to
		return nil
	}

	for {
		text, ok = scan()
		if !ok {
			break
		}
		fields = strings.Fields(text)
		switch fields[0] {
		case "dead":
			if err := advance(secDead, "dead"); err != nil {
				return nil, err
			}
			if len(fields) != 2 {
				return nil, errf("want \"dead <v>\", got %q", text)
			}
			v, err := parseNode(fields[1])
			if err != nil {
				return nil, err
			}
			if !s.G.Alive(v) {
				return nil, errf("duplicate dead %d", v)
			}
			s.G.RemoveNode(v)
			s.Gp.RemoveNode(v)
		case "node":
			if err := advance(secNode, "node"); err != nil {
				return nil, err
			}
			if len(fields) != 5 {
				return nil, errf("want \"node <v> <initID> <curID> <deg>\", got %q", text)
			}
			v, err := parseNode(fields[1])
			if err != nil {
				return nil, err
			}
			if !s.G.Alive(v) {
				return nil, errf("node record for dead node %d", v)
			}
			if hasNode[v] {
				return nil, errf("duplicate node record for %d", v)
			}
			initID, err1 := strconv.ParseUint(fields[2], 10, 64)
			curID, err2 := strconv.ParseUint(fields[3], 10, 64)
			deg, err3 := strconv.Atoi(fields[4])
			if err1 != nil || err2 != nil || err3 != nil || deg < 0 {
				return nil, errf("bad node record %q", text)
			}
			if curID > initID {
				return nil, errf("node %d label %d above its initial ID %d", v, curID, initID)
			}
			if prev, dup := seenID[initID]; dup {
				return nil, errf("node %d reuses node %d's initial ID %d", v, prev, initID)
			}
			seenID[initID] = v
			hasNode[v] = true
			s.InitID[v], s.CurID[v], s.InitDeg[v] = initID, curID, deg
		case "g", "gp":
			sec, kind := secG, "g"
			if fields[0] == "gp" {
				sec, kind = secGp, "gp"
			}
			if err := advance(sec, kind); err != nil {
				return nil, err
			}
			if len(fields) != 3 {
				return nil, errf("want \"%s <u> <v>\", got %q", kind, text)
			}
			u, err := parseNode(fields[1])
			if err != nil {
				return nil, err
			}
			v, err := parseNode(fields[2])
			if err != nil {
				return nil, err
			}
			if u == v {
				return nil, errf("self edge %d-%d", u, v)
			}
			if !s.G.Alive(u) || !s.G.Alive(v) {
				return nil, errf("%s edge %d-%d touches a dead node", kind, u, v)
			}
			if kind == "g" {
				if !s.G.AddEdge(u, v) {
					return nil, errf("duplicate g edge %d-%d", u, v)
				}
			} else {
				if !s.G.HasEdge(u, v) {
					return nil, errf("gp edge %d-%d not present in g (G′ ⊄ G)", u, v)
				}
				if !s.Gp.AddEdge(u, v) {
					return nil, errf("duplicate gp edge %d-%d", u, v)
				}
			}
		default:
			return nil, errf("unknown record %q", text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphio: reading snapshot: %w", err)
	}
	for v := 0; v < n; v++ {
		if s.G.Alive(v) && !hasNode[v] {
			return nil, fmt.Errorf("graphio: snapshot missing node record for alive node %d", v)
		}
	}
	return s, nil
}
