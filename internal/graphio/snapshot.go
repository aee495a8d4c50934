package graphio

// Snapshot is the full-state serialization of a self-healing network: the
// real graph G, the healing forest G′, and the per-node healing state
// (initial ID, current component label, initial degree) that DASH's
// decisions depend on. It is the daemon's snapshot/restore wire format:
// a restored state makes bit-identical healing decisions from the restore
// point onward (core.Restore performs the semantic validation; this file
// performs the structural validation and the text round-trip).
//
// The format is line-oriented text, one record per line, in a fixed
// section order:
//
//	dashsnap 1
//	n <N>
//	dead <v>                          (one per dead slot)
//	node <v> <initID> <curID> <deg>   (one per alive node)
//	g <u> <v>                         (one per G edge, u < v)
//	gp <u> <v>                        (one per G′ edge, u < v)
//
// Blank lines and #-comments are skipped, and every complete line is a
// self-contained record. ReadSnapshot is a trust boundary: the daemon's
// restore endpoint feeds it bytes from the network, so every structural
// inconsistency — IDs out of range, duplicate or self edges, a G′ edge
// absent from G, labels above their own initial ID, section-order
// violations — is a line-numbered error, never a panic or a silently
// corrupted graph.
//
// Both directions make one pass. ReadSnapshot splits each line in place
// and parses its integers from the bytes (token.go), checks each record
// as it arrives, and collects the g and gp endpoints into two flat lists
// that graph.TryFromEdges builds into packed graphs at the end of their
// sections, instead of one sorted-row insertion per record. It accepts
// exactly what a reader built on strings.Fields and strconv accepts,
// Unicode spaces and signs included (snapshot_ref_test.go keeps such a
// reader as the reference). WriteSnapshot appends its digits to one
// buffer and walks the sorted adjacency rows for the edge sections.

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"

	"repro/internal/graph"
)

// Snapshot carries the serialized state. Slices are indexed by node slot
// (length G.N()); entries for dead slots are zero and ignored.
type Snapshot struct {
	G       *graph.Graph // the real network
	Gp      *graph.Graph // the healing forest; every edge also in G
	InitID  []uint64     // immutable per-node IDs, unique among alive nodes
	CurID   []uint64     // component labels; CurID[v] <= InitID[v]
	InitDeg []int        // degrees at construction/join time
}

// snapshotMagic is the required first record; the version suffix lets the
// format evolve without silently misparsing old archives.
const snapshotMagic = "dashsnap 1"

// WriteSnapshot serializes s in canonical section order. It appends
// every record to one buffer with strconv and walks G's and G′'s sorted
// rows for the edge sections, so it allocates no edge list.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	if err := checkShape(s); err != nil {
		return fmt.Errorf("graphio: refusing to write inconsistent snapshot: %w", err)
	}
	lw := newLineWriter(w)
	n := s.G.N()
	lw.putStr(snapshotMagic + "\nn ")
	lw.putInt(n)
	lw.end()
	for v := 0; v < n; v++ {
		if !s.G.Alive(v) {
			lw.putStr("dead ")
			lw.putInt(v)
			lw.end()
		}
	}
	for v := 0; v < n; v++ {
		if s.G.Alive(v) {
			lw.putStr("node ")
			lw.putInt(v)
			lw.putStr(" ")
			lw.putUint(s.InitID[v])
			lw.putStr(" ")
			lw.putUint(s.CurID[v])
			lw.putStr(" ")
			lw.putInt(s.InitDeg[v])
			lw.end()
		}
	}
	writeEdges(lw, "g ", s.G)
	writeEdges(lw, "gp ", s.Gp)
	return lw.close()
}

// checkShape validates the in-memory snapshot invariants WriteSnapshot
// relies on (so a buggy caller cannot emit a file ReadSnapshot rejects).
func checkShape(s *Snapshot) error {
	if s == nil || s.G == nil || s.Gp == nil {
		return fmt.Errorf("nil graphs")
	}
	n := s.G.N()
	if s.Gp.N() != n {
		return fmt.Errorf("G has %d slots, G′ %d", n, s.Gp.N())
	}
	if len(s.InitID) != n || len(s.CurID) != n || len(s.InitDeg) != n {
		return fmt.Errorf("per-node slices sized %d/%d/%d, want %d",
			len(s.InitID), len(s.CurID), len(s.InitDeg), n)
	}
	for v := 0; v < n; v++ {
		if s.G.Alive(v) != s.Gp.Alive(v) {
			return fmt.Errorf("node %d alive in one graph only", v)
		}
		if s.G.Alive(v) && s.CurID[v] > s.InitID[v] {
			return fmt.Errorf("node %d label %d above its initial ID %d", v, s.CurID[v], s.InitID[v])
		}
	}
	if !s.Gp.IsSubgraphOf(s.G) {
		return fmt.Errorf("G′ is not a subgraph of G")
	}
	return nil
}

// snapshot section ordering: each record kind may only be followed by
// kinds at the same or a later stage.
const (
	secHeader = iota
	secDead
	secNode
	secG
	secGp
)

// A node slot's state during a read.
const (
	slotUnseen = iota // alive, no node record yet
	slotDead
	slotNode // alive, node record read
)

// ReadSnapshot parses and validates a stream written by WriteSnapshot.
// maxNodes > 0 caps the node count the header may declare — the guard a
// daemon restore endpoint needs against a one-line "n 9999999999999"
// allocation bomb; maxNodes <= 0 accepts any size.
func ReadSnapshot(r io.Reader, maxNodes int) (*Snapshot, error) {
	p := &snapReader{lineReader: newLineReader(r), rec: -1, lastLine: -1}
	if err := p.header(maxNodes); err != nil {
		return nil, err
	}
	for p.next() {
		if err := p.record(); err != nil {
			return nil, err
		}
	}
	if err := p.err(); err != nil {
		return nil, fmt.Errorf("graphio: reading snapshot: %w", err)
	}
	if err := p.closeThrough(secGp); err != nil {
		return nil, err
	}
	for v, st := range p.slot {
		if st == slotUnseen {
			return nil, fmt.Errorf("graphio: snapshot missing node record for alive node %d", v)
		}
	}
	return p.s, nil
}

// snapReader is ReadSnapshot's state. Most checks run on the record
// they concern. Three wait for the end of their section: initial-ID
// uniqueness (one sort of the node section's IDs) and duplicate g and
// gp edges (graph.TryFromEdges, which builds each graph in bulk from
// its section's endpoint list). A failure they find is reported at the
// line of its record. The verdict is the one a record-by-record check
// gives; on an input with several faults, the fault named may differ.
type snapReader struct {
	*lineReader
	n     int
	s     *Snapshot
	slot  []uint8 // slotUnseen, slotDead or slotNode, per node
	stage int     // the section being read
	open  int     // the first section whose end-of-section check has not run

	// Record numbers, counted from 0 over the non-blank, non-comment
	// lines, map to line numbers through marks: one per record whose
	// line does not directly follow the previous record's.
	rec      int // the current record's number
	lastLine int
	marks    []lineMark

	nodes   []int32    // node-record slots, in record order
	nodeRec int        // the first node record's number
	edges   [2][]int32 // the g and gp sections' endpoint lists
	edgeRec [2]int     // each section's first record number
}

type lineMark struct{ rec, line int }

// next advances to the next record, numbering it.
func (p *snapReader) next() bool {
	if !p.lineReader.next() {
		return false
	}
	p.rec++
	if p.line != p.lastLine+1 {
		p.marks = append(p.marks, lineMark{p.rec, p.line})
	}
	p.lastLine = p.line
	return true
}

// lineOf returns the line record rec was read from.
func (p *snapReader) lineOf(rec int) int {
	i, _ := slices.BinarySearchFunc(p.marks, rec+1, func(m lineMark, r int) int { return m.rec - r })
	m := p.marks[i-1]
	return m.line + rec - m.rec
}

// errf is a line-numbered error at the current line.
func (p *snapReader) errf(format string, args ...any) error {
	return errAt(p.line, format, args...)
}

func errAt(line int, format string, args ...any) error {
	return fmt.Errorf("graphio: line %d: %s", line, fmt.Sprintf(format, args...))
}

// header reads the magic and n records and sizes the snapshot.
func (p *snapReader) header(maxNodes int) error {
	var text string
	if p.next() {
		text = string(p.text())
	}
	if text != snapshotMagic {
		return p.errf("missing %q header (got %q)", snapshotMagic, text)
	}
	if !p.next() {
		return p.errf("missing n record")
	}
	if p.nf != 2 || string(p.f(0)) != "n" {
		return p.errf("want \"n <N>\", got %q", p.text())
	}
	n, ok := atoi(p.f(1))
	if !ok || n < 0 {
		return p.errf("bad node count %q", p.f(1))
	}
	if maxNodes > 0 && n > maxNodes {
		return p.errf("snapshot declares %d nodes, above the %d-node limit", n, maxNodes)
	}
	p.n = n
	p.s = &Snapshot{InitID: make([]uint64, n), CurID: make([]uint64, n), InitDeg: make([]int, n)}
	p.slot = make([]uint8, n)
	p.nodes = make([]int32, 0, n)
	return nil
}

// record checks and stores the current record.
func (p *snapReader) record() error {
	switch string(p.f(0)) {
	case "dead":
		return p.dead()
	case "node":
		return p.node()
	case "g":
		return p.edge(secG, "g")
	case "gp":
		return p.edge(secGp, "gp")
	}
	return p.errf("unknown record %q", p.text())
}

// advance enforces the fixed section order, running the end-of-section
// checks of every section it leaves.
func (p *snapReader) advance(to int, kind string) error {
	if to < p.stage {
		return p.errf("%s record after a later section", kind)
	}
	p.stage = to
	return p.closeThrough(to - 1)
}

// closeThrough runs the end-of-section checks of every section up to
// and including sec that has not had them.
func (p *snapReader) closeThrough(sec int) error {
	for ; p.open <= sec; p.open++ {
		var err error
		switch p.open {
		case secNode:
			err = p.checkIDs()
		case secG:
			p.s.G, err = p.build(0, "g")
		case secGp:
			p.s.Gp, err = p.build(1, "gp")
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// nodeField parses field i as a slot, which must lie in [0, n).
func (p *snapReader) nodeField(i int) (int, error) {
	v, ok := p.atoi(i)
	if !ok || v < 0 || v >= p.n {
		return 0, p.errf("node %q out of range [0,%d)", p.f(i), p.n)
	}
	return v, nil
}

func (p *snapReader) dead() error {
	if err := p.advance(secDead, "dead"); err != nil {
		return err
	}
	if p.nf != 2 {
		return p.errf("want \"dead <v>\", got %q", p.text())
	}
	v, err := p.nodeField(1)
	if err != nil {
		return err
	}
	if p.slot[v] == slotDead {
		return p.errf("duplicate dead %d", v)
	}
	p.slot[v] = slotDead
	return nil
}

func (p *snapReader) node() error {
	if err := p.advance(secNode, "node"); err != nil {
		return err
	}
	if p.nf != 5 {
		return p.errf("want \"node <v> <initID> <curID> <deg>\", got %q", p.text())
	}
	v, err := p.nodeField(1)
	if err != nil {
		return err
	}
	switch p.slot[v] {
	case slotDead:
		return p.errf("node record for dead node %d", v)
	case slotNode:
		return p.errf("duplicate node record for %d", v)
	}
	initID, ok1 := parseUint(p.f(2))
	curID, ok2 := parseUint(p.f(3))
	deg, ok3 := p.atoi(4)
	if !ok1 || !ok2 || !ok3 || deg < 0 {
		return p.errf("bad node record %q", p.text())
	}
	if curID > initID {
		return p.errf("node %d label %d above its initial ID %d", v, curID, initID)
	}
	if len(p.nodes) == 0 {
		p.nodeRec = p.rec
	}
	p.nodes = append(p.nodes, int32(v))
	p.slot[v] = slotNode
	p.s.InitID[v], p.s.CurID[v], p.s.InitDeg[v] = initID, curID, deg
	return nil
}

// edge checks a g (list 0) or gp (list 1) record and appends it to its
// section's endpoint list.
func (p *snapReader) edge(sec int, kind string) error {
	if err := p.advance(sec, kind); err != nil {
		return err
	}
	if p.nf != 3 {
		return p.errf("want \"%s <u> <v>\", got %q", kind, p.text())
	}
	u, err := p.nodeField(1)
	if err != nil {
		return err
	}
	v, err := p.nodeField(2)
	if err != nil {
		return err
	}
	if u == v {
		return p.errf("self edge %d-%d", u, v)
	}
	if p.slot[u] == slotDead || p.slot[v] == slotDead {
		return p.errf("%s edge %d-%d touches a dead node", kind, u, v)
	}
	list := sec - secG
	if list == 1 && !p.s.G.HasEdge(u, v) {
		return p.errf("gp edge %d-%d not present in g (G′ ⊄ G)", u, v)
	}
	if len(p.edges[list]) == 0 {
		p.edgeRec[list] = p.rec
	}
	p.edges[list] = append(p.edges[list], int32(u), int32(v))
	return nil
}

// checkIDs requires the node section's initial IDs to be unique. It
// sorts a copy; only when that finds a repeat does it walk the records
// in order to name the first one.
func (p *snapReader) checkIDs() error {
	ids := make([]uint64, len(p.nodes))
	for k, v := range p.nodes {
		ids[k] = p.s.InitID[v]
	}
	slices.Sort(ids)
	for k := 1; k < len(ids); k++ {
		if ids[k] == ids[k-1] {
			return p.firstReusedID()
		}
	}
	return nil
}

func (p *snapReader) firstReusedID() error {
	seen := make(map[uint64]int32, len(p.nodes))
	for k, v := range p.nodes {
		id := p.s.InitID[v]
		if prev, dup := seen[id]; dup {
			return errAt(p.lineOf(p.nodeRec+k), "node %d reuses node %d's initial ID %d", v, prev, id)
		}
		seen[id] = v
	}
	return nil
}

// build builds the graph of the g (list 0) or gp (list 1) section and
// marks the dead slots. Every endpoint is in range, alive and not its
// edge's partner by now, so the only failure left is a duplicate edge,
// reported at the line of its record.
func (p *snapReader) build(list int, kind string) (*graph.Graph, error) {
	edges := p.edges[list]
	p.edges[list] = nil
	g, err := graph.TryFromEdges(p.n, edges)
	if err != nil {
		var ee *graph.EdgeError
		if !errors.As(err, &ee) {
			return nil, err
		}
		return nil, errAt(p.lineOf(p.edgeRec[list]+ee.Edge), "duplicate %s edge %d-%d", kind, ee.U, ee.V)
	}
	for v, st := range p.slot {
		if st == slotDead {
			g.RemoveNode(v)
		}
	}
	return g, nil
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
