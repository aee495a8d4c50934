package graphio

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// snapshotSeeds are FuzzReadSnapshot's seeds and the corpus
// TestReadSnapshotMatchesReference checks: valid snapshots, each
// structural fault, and the lexical corners where a hand-written
// tokenizer could part from strings.Fields and strconv.
var snapshotSeeds = []string{
	"dashsnap 1\nn 3\nnode 0 10 10 1\nnode 1 20 20 1\nnode 2 30 5 0\ng 0 1\ngp 0 1\n",
	"dashsnap 1\nn 2\ndead 1\nnode 0 7 7 0\n",
	"dashsnap 1\nn 0\n",
	"dashsnap 1\nn 4\nnode 0 1 1 0\nnode 1 2 2 0\nnode 2 3 3 0\nnode 3 4 4 0\ng 0 1\ng 2 3\ngp 2 3\n",
	"dashsnap 1\nn 1000000000000\n",
	"dashsnap 1\nn 2\nnode 0 5 5 0\nnode 1 5 5 0\n",
	"dashsnap 1\nn 1\nnode 0 5 9 0\n",
	"garbage",
	goldenSnapshotText,
	// Signs: strconv.Atoi takes + and - on slots, counts and degrees;
	// strconv.ParseUint takes neither on IDs.
	"dashsnap 1\nn +2\nnode +0 5 5 +1\nnode 1 6 6 -0\ng -0 +1\n",
	"dashsnap 1\nn 1\nnode 0 +5 5 0\n",
	"dashsnap 1\nn 1\nnode 0 5 -0 0\n",
	"dashsnap 1\nn -0\n",
	"dashsnap 1\nn 2\nnode 0 1 1 0\nnode 1 2 2 0\ng 0 +-1\n",
	// Whitespace: tabs, CRLF line ends, and the Unicode spaces U+00A0
	// and U+0085, which strings.Fields splits on and strings.TrimSpace
	// trims, inside and around records.
	"dashsnap 1\r\nn\t2\r\nnode 0\t1 1 0\r\n\tnode 1 2 2 0  \r\ng 0\v1\f\r\n",
	"\u00a0dashsnap 1\u0085\nn\u00a02\nnode 0 1\u00851 0\nnode\u00a01 2 2 0\ng 0 1\u00a0\n",
	"dashsnap\u00a01\nn 0\n",
	"dashsnap 1\nn 1\nnode 0 1 1 0\u00a0x\n",
	"dashsnap 1\nn 1\nnode 0 1 1 \xa0\n",
	// uint64 overflow on IDs, int overflow on slots and degrees.
	"dashsnap 1\nn 1\nnode 0 18446744073709551615 18446744073709551615 0\n",
	"dashsnap 1\nn 1\nnode 0 18446744073709551616 0 0\n",
	"dashsnap 1\nn 1\nnode 0 99999999999999999999 0 0\n",
	"dashsnap 1\nn 1\nnode 0 5 5 9223372036854775808\n",
	"dashsnap 1\nn 1\nnode 0 5 5 9223372036854775807\n",
	"dashsnap 1\nn 9223372036854775808\n",
	// Comments and blank lines, between records and inside sections.
	"# archived state\n\ndashsnap 1\n  # n follows\nn 3\n\ndead 2\n#\nnode 0 4 4 1\n\n# nodes done\nnode 1 3 3 1\ng 0 1\n\n# G′\ngp 0 1\n",
	"dashsnap 1\n# comment\nn 2\nnode 0 1 1 0\n\n\nnode 1 1 1 0\n",
	"dashsnap 1\nn 3\nnode 0 1 1 0\nnode 1 2 2 0\nnode 2 3 3 0\ng 0 1\n# x\n\ng 1 2\n\n#\ng 1 0\ng 0 2\n",
	// Duplicate edges, repeated in reverse and behind later faults.
	"dashsnap 1\nn 2\nnode 0 1 1 0\nnode 1 2 2 0\ng 0 1\ng 1 0\n",
	"dashsnap 1\nn 3\nnode 0 1 1 0\nnode 1 2 2 0\nnode 2 3 3 0\ng 0 1\ng 1 0\ng 2 2\n",
	"dashsnap 1\nn 3\nnode 0 1 1 0\nnode 1 2 2 0\nnode 2 3 3 0\ng 0 1\ng 1 2\ngp 0 1\ngp 2 1\ngp 1 0\ngp 0 2\n",
	"dashsnap 1\nn 3\nnode 0 1 1 0\nnode 1 1 1 0\nnode 2 1 1 0\ndead 2\n",
	"dashsnap 1\nn 3\nnode 0 1 1 0\nnode 1 2 2 0\nnode 2 3 3 0\ng 0 1\ng 0 1\n",
	"dashsnap 1\nn 2\nnode 0 1 1 0\nnode 1 2 2 0\ng 0 1\ng 0 1",
	// gp before any g, and sections out of order.
	"dashsnap 1\nn 2\nnode 0 1 1 0\nnode 1 2 2 0\ngp 0 1\n",
	"dashsnap 1\nn 2\nnode 0 1 1 0\nnode 1 2 2 0\ngp 0 1\ng 0 1\n",
	"dashsnap 1\nn 2\nnode 0 1 1 0\ng 0 1\nnode 1 2 2 0\n",
	"dashsnap 1\nn 2\nnode 0 1 1 0\nnode 1 2 2 0\ng 0 1\ng 0 1\ndead 0\n",
}

// FuzzReadSnapshot checks the snapshot reader, the daemon's restore
// trust boundary, against the reference reader it replaced: both must
// give the same verdict, and on acceptance the same state, which both writers must encode to the same bytes and which must
// round-trip through them. Neither may panic.
func FuzzReadSnapshot(f *testing.F) {
	for _, s := range snapshotSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		s, _ := readSnapshotAgrees(t, input, 1<<16)
		if s == nil {
			return
		}
		var b strings.Builder
		if err := WriteSnapshot(&b, s); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		var ref strings.Builder
		if err := writeSnapshotRef(&ref, s); err != nil || ref.String() != b.String() {
			t.Fatalf("writers differ (reference error %v)\nwritten:   %q\nreference: %q", err, b.String(), ref.String())
		}
		back, err := ReadSnapshot(strings.NewReader(b.String()), 0)
		if err != nil {
			t.Fatalf("round-trip re-read failed: %v\noriginal: %q\nwritten: %q", err, input, b.String())
		}
		if !snapshotsEqual(s, back) {
			t.Fatalf("round trip changed the state\ninput: %q", input)
		}
	})
}

// readSnapshotAgrees reads input with ReadSnapshot and with the
// reference reader, fails t unless both reject it or both accept it with
// the same state, and returns the state (nil on rejection) and
// ReadSnapshot's error.
func readSnapshotAgrees(t *testing.T, input string, maxNodes int) (*Snapshot, error) {
	t.Helper()
	got, err := ReadSnapshot(strings.NewReader(input), maxNodes)
	want, wantErr := readSnapshotRef(strings.NewReader(input), maxNodes)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("verdicts differ on %.200q\nReadSnapshot: %v\nreference:    %v", input, err, wantErr)
	}
	if err != nil {
		return nil, err
	}
	if !snapshotsEqual(got, want) {
		t.Fatalf("states differ on %.200q", input)
	}
	return got, nil
}

// TestReadSnapshotMatchesReference runs the differential check of
// FuzzReadSnapshot over the seeds and over inputs too large to seed a
// fuzzer with: lines just under and just over the scanner's 16 MiB
// limit, and the scale state's text with faults planted far from the
// records they clash with. A lone planted fault must be named at its
// own line.
func TestReadSnapshotMatchesReference(t *testing.T) {
	for _, s := range snapshotSeeds {
		readSnapshotAgrees(t, s, 1<<16)
		readSnapshotAgrees(t, s, 2)
	}
	under := "dashsnap 1\nn 1\nnode 0 1 1 0" + strings.Repeat(" ", maxLine-len("node 0 1 1 0")-1) + "\n"
	if s, _ := readSnapshotAgrees(t, under, 0); s == nil {
		t.Error("a line of maxLine-1 bytes was rejected")
	}
	readSnapshotAgrees(t, under[:len(under)-1]+" \n", 0)
	readSnapshotAgrees(t, "dashsnap 1\nn 2\nnode 0 1 1 0\nnode 1 2 2 0\ng 0 1\ng 1 0\n#"+strings.Repeat("x", maxLine)+"\n", 0)

	commented := "dashsnap 1\nn 3\nnode 0 1 1 0\nnode 1 2 2 0\nnode 2 3 3 0\ng 0 1\n# x\n\ng 1 2\n\n#\ng 1 0\n"
	if _, err := readSnapshotAgrees(t, commented, 0); err == nil || !strings.Contains(err.Error(), "line 12:") {
		t.Errorf("a repeat behind comments and blank lines: error %v, want one at line 12", err)
	}

	var b strings.Builder
	if err := WriteSnapshot(&b, healedSnapshot(10_000, 2000)); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(b.String(), "\n")
	if s, _ := readSnapshotAgrees(t, b.String(), 0); s == nil {
		t.Fatal("scale state rejected")
	}
	first := func(prefix string) int {
		return slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, prefix) })
	}
	reversed := func(rec string) string {
		f := strings.Fields(rec)
		return f[0] + " " + f[2] + " " + f[1] + "\n"
	}
	g, gp, end := first("g "), first("gp "), len(lines)-1
	for _, fault := range []struct {
		at    int
		plant []string
	}{
		{g + 1, []string{"g 7 7\n"}},                         // a self edge
		{gp, []string{reversed(lines[g])}},                   // the first g edge again, last
		{end, []string{reversed(lines[gp])}},                 // the first gp edge again, last
		{g, []string{"dead 3\n"}},                            // a dead record after the nodes
		{gp, []string{reversed(lines[g]), "node 1 1 1 1\n"}}, // a repeat, then a later fault
		{end, []string{reversed(lines[gp]), "g 1 2\n"}},
	} {
		planted := slices.Concat(lines[:fault.at], fault.plant, lines[fault.at:])
		_, err := readSnapshotAgrees(t, strings.Join(planted, ""), 0)
		line := fmt.Sprintf("line %d:", fault.at+1)
		if err == nil {
			t.Errorf("planting %q at line %d was accepted", fault.plant, fault.at+1)
		} else if len(fault.plant) == 1 && !strings.Contains(err.Error(), line) {
			t.Errorf("planting %q: error %q does not name %s", fault.plant, err, line)
		}
	}
}
