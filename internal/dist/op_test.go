package dist

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist/chaos"
	"repro/internal/gen"
	"repro/internal/rng"
)

// mustIssue issues op and fails the test if the network refuses it or
// places a join in another slot than op.NewID.
func mustIssue(tb testing.TB, nw *Network, op Op) *Epoch {
	tb.Helper()
	ep, err := nw.Issue(op)
	if err != nil {
		tb.Fatal(err)
	}
	if ep == nil {
		tb.Fatalf("%v refused", op)
	}
	return ep
}

// mustRun issues op with mustIssue and fails the test unless its epoch
// completes within testTimeout.
func mustRun(tb testing.TB, nw *Network, op Op) {
	tb.Helper()
	if err := mustIssue(tb, nw, op).Wait(testTimeout); err != nil {
		tb.Fatalf("%v: %v", op, err)
	}
}

// TestIssueRefusesDeadKill pins Issue's refusal of an op naming a dead
// or out-of-range node, where KillAsync and core.RemoveBatch panic: a
// kill or a batch naming one gets no epoch and no effective-log entry,
// and a batch is refused whole, so its live member stays killable.
func TestIssueRefusesDeadKill(t *testing.T) {
	g := gen.BarabasiAlbert(16, 3, rng.New(1))
	nw := NewKind(g.Clone(), InitIDs(core.NewState(g, rng.New(2))), HealDASH)
	defer nw.Close()
	mustRun(t, nw, Op{Kind: OpKill, Victim: 3})
	for _, op := range []Op{
		{Kind: OpKill, Victim: 3},
		{Kind: OpKill, Victim: -1},
		{Kind: OpKill, Victim: 16},
		{Kind: OpBatch, Batch: []int{5, 3}},
		{Kind: OpBatch, Batch: []int{5, 16}},
		{Kind: OpBatch, Batch: []int{-1, 5}},
	} {
		if ep, err := nw.Issue(op); ep != nil || err != nil {
			t.Fatalf("Issue(%v) = (%v, %v), want a refusal", op, ep, err)
		}
	}
	if ops := nw.EffectiveOps(); len(ops) != 1 {
		t.Fatalf("EffectiveOps = %v, want the one accepted kill", ops)
	}
	mustRun(t, nw, Op{Kind: OpBatch, Batch: []int{5}})
}

// TestIssueRefusesBatchWithCrashedNode pins the batch refusal the old
// issue forms lacked: once the chaos transport has fail-stopped a node,
// a batch naming it is refused whole — no epoch, no log entry, and its
// other member stays killable.
func TestIssueRefusesBatchWithCrashedNode(t *testing.T) {
	plan := &chaos.Plan{
		Seed:    2,
		Crashes: []chaos.CrashPoint{{Target: chaos.Wildcard, Kind: "label-notify", Nth: 1}},
	}
	nw, seq := buildChaosPair(t, 24, 313, plan)
	defer nw.Close()
	mustRun(t, nw, Op{Kind: OpKill, Victim: seq.G.AliveNodes()[0]})
	if err := nw.Drain(testTimeout); err != nil {
		t.Fatal(err)
	}
	crashed := nw.Crashed()
	if len(crashed) != 1 {
		t.Fatalf("Crashed() = %v, want one node", crashed)
	}
	logged := len(nw.EffectiveOps())
	other := -1
	for _, v := range nw.Snapshot().G.AliveNodes() {
		if v != crashed[0] {
			other = v
			break
		}
	}
	batch := Op{Kind: OpBatch, Batch: []int{other, crashed[0]}}
	if ep, err := nw.Issue(batch); ep != nil || err != nil {
		t.Fatalf("Issue(%v) = (%v, %v), want a refusal", batch, ep, err)
	}
	if got := len(nw.EffectiveOps()); got != logged {
		t.Fatalf("refused batch changed the effective log: %d entries, was %d", got, logged)
	}
	mustRun(t, nw, Op{Kind: OpKill, Victim: other})
}

// TestIssueReportsMisplacedJoin pins that Issue checks a join's slot: a
// join the caller expects in slot 17 lands in slot 16 of a 16-node
// network, and Issue says so while still returning its epoch.
func TestIssueReportsMisplacedJoin(t *testing.T) {
	g := gen.BarabasiAlbert(16, 3, rng.New(1))
	nw := NewKind(g.Clone(), InitIDs(core.NewState(g, rng.New(2))), HealDASH)
	defer nw.Close()
	ep, err := nw.Issue(Op{Kind: OpJoin, NewID: 17, Attach: []int{0, 1}, InitID: 7})
	if err == nil || !strings.Contains(err.Error(), "slot 16") {
		t.Fatalf("Issue = %v, want an error naming slot 16", err)
	}
	if ep == nil {
		t.Fatal("the misplaced join was issued, but Issue returned no epoch")
	}
	if err := ep.Wait(testTimeout); err != nil {
		t.Fatal(err)
	}
}

// TestJoinIDsDrawsAsCoreJoin pins JoinIDs to core.Join's draw: a held
// draw repeats until Use, and the IDs used match the ones the
// sequential engine gives its joiners from the same stream.
func TestJoinIDsDrawsAsCoreJoin(t *testing.T) {
	g := gen.BarabasiAlbert(16, 3, rng.New(1))
	seq := core.NewState(g, rng.New(2))
	joinIDs := NewJoinIDs(rng.New(3), InitIDs(seq))
	joinR := rng.New(3)
	for i := 0; i < 4; i++ {
		id := joinIDs.Next()
		if again := joinIDs.Next(); again != id {
			t.Fatalf("join %d: held draw %#x became %#x", i, id, again)
		}
		joinIDs.Use()
		v := seq.Join([]int{i}, joinR)
		if seq.InitID(v) != id {
			t.Fatalf("join %d: JoinIDs %#x, core.Join %#x", i, id, seq.InitID(v))
		}
	}
}
