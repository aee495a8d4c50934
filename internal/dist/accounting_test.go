package dist

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
)

// TestBatchMessageAccounting gates a batch epoch's node-sent traffic,
// per message kind, against the cluster heals' reconnection sets: the
// epoch's message bound beside Lemma 8's. The supervisor picks each
// cluster's representatives from its mirror, so the node-driven part of
// a cluster heal costs what a single kill's does, with RT the
// cluster's representative set:
//
//	report requests = reports = |RT|
//	attach orders = attach acks = 2·(|RT| − 1)
//	flood messages ≤ |RT| · (1 + 2·E(U))
//	label notifications ≤ Σ deg_G (one drop per adopter per wave)
//
// summed over the clusters with candidates. U is the G′ tree a cluster's
// wave runs on; later waves only add edges, so the test bounds E(U) by
// the most edges of any G′ component after the batch. The flood bound
// is Lemma 8's charging: a hop tag is the G′ distance from the RT member
// that started the path, so a node forwards at most once per RT member,
// and a forward costs its G′ degree; the leader's opening sends add
// |RT|. The notification bound is TestSingleKillNotifyAccounting's, once
// per cluster wave. Anything else a node sends during a batch is NoN
// gossip.
func TestBatchMessageAccounting(t *testing.T) {
	const n = 400
	master := rng.New(77)
	g := gen.BarabasiAlbert(n, 3, master.Split())
	seq := core.NewState(g.Clone(), master.Split())
	ids := InitIDs(seq)
	nw := NewKind(g.Clone(), ids, HealDASH)
	defer nw.Close()

	// Warm up with single kills so G′ grows real components: candidates
	// that share one must get one representative between them.
	attR := master.Split()
	for i := 0; i < 60; i++ {
		alive := seq.G.AliveNodes()
		x := alive[attR.Intn(len(alive))]
		seq.DeleteAndHeal(x, core.DASH{})
		mustRun(t, nw, Op{Kind: OpKill, Victim: x})
	}

	counts := func() (c [msgKindCount]int64) {
		for k := range c {
			c[k] = nw.msgKindTotal(msgKind(k))
		}
		return c
	}
	var cands, reps int
	for round := 0; round < 6; round++ {
		batch := pickBatch(seq.G, 16, attR)
		for _, cs := range coreClusters(seq.G, batch) {
			cands += len(cs)
		}
		before := counts()
		res := seq.DeleteBatchAndHeal(batch)
		reps += res.RTSize
		mustRun(t, nw, Op{Kind: OpBatch, Batch: batch})
		after := counts()
		sent := func(k msgKind) int64 { return after[k] - before[k] }

		rt, clusters := int64(res.RTSize), int64(len(nw.lastClusters))
		if req, rep := sent(msgBatchReportReq), sent(msgBatchReport); req != rt || rep != rt {
			t.Fatalf("round %d: %d report requests and %d reports, want |RT| = %d each", round, req, rep, rt)
		}
		wantWires := 2 * (rt - clusters)
		if at, ack := sent(msgAttach), sent(msgAttachAck); at != wantWires || ack != wantWires {
			t.Fatalf("round %d: %d attach orders and %d acks, want 2·(|RT| − clusters) = %d each", round, at, ack, wantWires)
		}
		var eMax, degSum int64
		comp := seq.Gp.ComponentLabels()
		compEdges := make(map[int]int64)
		for _, v := range seq.G.AliveNodes() {
			degSum += int64(seq.G.Degree(v))
			for _, u := range seq.Gp.Neighbors(v) {
				if int(u) > v {
					compEdges[comp[v]]++
				}
			}
		}
		for _, e := range compEdges {
			eMax = max(eMax, e)
		}
		if fl := sent(msgLabelFlood); fl > rt*(1+2*eMax) {
			t.Fatalf("round %d: %d flood messages exceed |RT|·(1 + 2·E(U)) = %d", round, fl, rt*(1+2*eMax))
		}
		if nt := sent(msgLabelNotify); nt > clusters*degSum {
			t.Fatalf("round %d: %d label notifications exceed clusters·Σdeg = %d", round, nt, clusters*degSum)
		}
		for k := msgKind(0); k < msgKindCount; k++ {
			switch k {
			case msgBatchReportReq, msgBatchReport, msgAttach, msgAttachAck,
				msgLabelFlood, msgLabelNotify, msgNoNFull, msgNoNAdd, msgNoNRemove:
			default:
				if !supervisorOnlyKind(k) && sent(k) != 0 {
					t.Fatalf("round %d: nodes sent %d %v messages in a batch epoch", round, sent(k), k)
				}
			}
		}
		assertStateEqual(t, round, nw, seq)
		t.Logf("batch %d: %d clusters, |RT| %d: reports %d+%d, attach %d+%d, flood %d, notify %d, NoN %d",
			round, clusters, rt, sent(msgBatchReportReq), sent(msgBatchReport), sent(msgAttach),
			sent(msgAttachAck), sent(msgLabelFlood), sent(msgLabelNotify),
			sent(msgNoNFull)+sent(msgNoNAdd)+sent(msgNoNRemove))
	}
	if reps >= cands {
		t.Fatalf("degenerate batches: %d representatives of %d candidates, so no two candidates shared a G′ component", reps, cands)
	}
}

// TestSingleKillNotifyAccounting pins the original Lemma 8 quantity on
// the live network: the label notifications a single kill's MINID flood
// triggers are bounded by the adopters' total G degree — each node
// whose label drops notifies each G neighbor once per drop, and under
// unique IDs a node's label drops at most once per heal epoch.
func TestSingleKillNotifyAccounting(t *testing.T) {
	const n = 200
	master := rng.New(9)
	g := gen.BarabasiAlbert(n, 3, master.Split())
	seq := core.NewState(g.Clone(), master.Split())
	ids := InitIDs(seq)
	nw := NewKind(g.Clone(), ids, HealDASH)
	defer nw.Close()

	attR := master.Split()
	for i := 0; i < 40; i++ {
		alive := seq.G.AliveNodes()
		x := alive[attR.Intn(len(alive))]

		before := nw.msgKindTotal(msgLabelNotify)
		seq.DeleteAndHeal(x, core.DASH{})
		mustRun(t, nw, Op{Kind: OpKill, Victim: x})
		notifies := nw.msgKindTotal(msgLabelNotify) - before

		// Upper bound: every alive node adopts at most once and
		// notifies at most its degree.
		var degSum int64
		for _, v := range seq.G.AliveNodes() {
			degSum += int64(seq.G.Degree(v))
		}
		if notifies > degSum {
			t.Fatalf("kill %d: %d label notifications exceed total degree %d", x, notifies, degSum)
		}
	}
	snap := nw.Snapshot()
	if !snap.G.Equal(seq.G) {
		t.Fatal("distributed G diverged from sequential")
	}
}
