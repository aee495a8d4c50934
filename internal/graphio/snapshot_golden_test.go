package graphio

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// goldenSnapshot is a fixed state that exercises every record kind and
// every digit count the writer must reproduce: dead slots at the front,
// in the middle and at the end, G′ edges, IDs at and just below 2⁶⁴−1,
// an ID of 0 and a multi-digit degree.
func goldenSnapshot() *Snapshot {
	const top = ^uint64(0)
	g := graph.New(9)
	for _, e := range [][2]int{{1, 3}, {1, 4}, {1, 8}, {3, 4}, {3, 6}, {4, 6}, {6, 8}} {
		g.AddEdge(e[0], e[1])
	}
	gp := graph.New(9)
	for _, e := range [][2]int{{1, 3}, {3, 6}, {6, 8}} {
		gp.AddEdge(e[0], e[1])
	}
	for _, v := range []int{0, 2, 5, 7} {
		g.RemoveNode(v)
		gp.RemoveNode(v)
	}
	return &Snapshot{
		G: g, Gp: gp,
		InitID:  []uint64{0, top, 0, top - 1, 0, 0, 9999999999999999999, 0, 1},
		CurID:   []uint64{0, 1, 0, 1, 0, 0, 1, 0, 1},
		InitDeg: []int{0, 3, 0, 12, 0, 0, 1234567, 0, 2},
	}
}

const goldenSnapshotText = `dashsnap 1
n 9
dead 0
dead 2
dead 5
dead 7
node 1 18446744073709551615 1 3
node 3 18446744073709551614 1 12
node 4 0 0 0
node 6 9999999999999999999 1 1234567
node 8 1 1 2
g 1 3
g 1 4
g 1 8
g 3 4
g 3 6
g 4 6
g 6 8
gp 1 3
gp 3 6
gp 6 8
`

// TestWriteSnapshotGolden pins WriteSnapshot's exact bytes: the format
// is a wire and archive format, so an encoder change must not move a
// single byte.
func TestWriteSnapshotGolden(t *testing.T) {
	var b strings.Builder
	if err := WriteSnapshot(&b, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != goldenSnapshotText {
		t.Fatalf("WriteSnapshot bytes changed:\ngot:\n%s\nwant:\n%s", got, goldenSnapshotText)
	}
	back, err := ReadSnapshot(strings.NewReader(goldenSnapshotText), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !snapshotsEqual(back, goldenSnapshot()) {
		t.Fatal("golden text does not read back as the golden state")
	}
}

// healedSnapshot is a Barabási–Albert network of n nodes after kills
// DASH heals of random victims: scattered dead slots, healed rows that
// no longer arrive in generator order, and a G′ forest of many trees.
func healedSnapshot(n, kills int) *Snapshot {
	r := rng.New(28)
	s := core.NewState(gen.BarabasiAlbert(n, 3, r.Split()), r.Split())
	kr := r.Split()
	for k := 0; k < kills; {
		if v := kr.Intn(s.G.N()); s.G.Alive(v) {
			s.DeleteAndHeal(v, core.DASH{})
			k++
		}
	}
	g, gp, initID, curID, initDeg := s.SnapshotData()
	return &Snapshot{G: g, Gp: gp, InitID: initID, CurID: curID, InitDeg: initDeg}
}

// scaleSnapshotSHA256 is the SHA-256 of the bytes of
// healedSnapshot(10_000, 2000),
// taken with the fmt-based encoder this format was first written with.
const scaleSnapshotSHA256 = "cd0ef31d8755751dd435317db6cdf6b60ab3735e92a2ebf0ba8467ed9a38cb0b"

// TestSnapshotRoundTripAtScale writes the scale state, checks its bytes
// against the pinned digest, reads it back, and requires an equal state
// whose rewrite is byte-identical.
func TestSnapshotRoundTripAtScale(t *testing.T) {
	s := healedSnapshot(10_000, 2000)
	if s.G.NumAlive() != 8000 || s.Gp.NumEdges() == 0 {
		t.Fatalf("scale state has %d alive and %d G′ edges, want 8000 and some", s.G.NumAlive(), s.Gp.NumEdges())
	}
	var first bytes.Buffer
	if err := WriteSnapshot(&first, s); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(first.Bytes())
	if got := hex.EncodeToString(sum[:]); got != scaleSnapshotSHA256 {
		t.Errorf("WriteSnapshot bytes changed at scale: sha256 %s, want %s", got, scaleSnapshotSHA256)
	}
	back, err := ReadSnapshot(bytes.NewReader(first.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !snapshotsEqual(back, s) {
		t.Fatal("round trip changed the state")
	}
	var second bytes.Buffer
	if err := WriteSnapshot(&second, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("rewriting the read-back state changed the bytes")
	}
}

// snapshotsEqual reports whether a and b hold the same graphs and the
// same per-node state on every alive slot.
func snapshotsEqual(a, b *Snapshot) bool {
	if !a.G.Equal(b.G) || !a.Gp.Equal(b.Gp) {
		return false
	}
	for v := 0; v < a.G.N(); v++ {
		if a.G.Alive(v) && (a.InitID[v] != b.InitID[v] || a.CurID[v] != b.CurID[v] || a.InitDeg[v] != b.InitDeg[v]) {
			return false
		}
	}
	return true
}
