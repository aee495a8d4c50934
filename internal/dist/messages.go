package dist

// The protocol's message vocabulary. Every inter-node interaction in the
// distributed implementation is one of these typed messages delivered to
// a node's mailbox; nothing else is shared between node actors.
type msgKind uint8

const (
	// msgDie is the failure detector's order to a node: broadcast your
	// death notice to every G neighbor and stop. It is the only message
	// the supervisor originates during a healing round.
	msgDie msgKind = iota

	// msgDeathNotice is the dying node's tombstone, sent to each of its
	// G neighbors. It carries no payload beyond the victim's identity:
	// the survivors already hold the victim's neighborhood (with initial
	// IDs) and its component label in their neighbor-of-neighbor tables,
	// which is exactly the locality assumption of the paper's model.
	msgDeathNotice

	// msgHealReport is an orphan's contribution to the heal, sent to the
	// round's leader (the orphan with the smallest initial ID, which
	// every orphan computes locally from its NoN table of the victim).
	msgHealReport

	// msgAttach is the leader's order to one endpoint of a healing edge:
	// connect to peer (in G if not already adjacent, and in G′). The
	// order carries the peer's initial ID and current label so the new
	// neighbors know each other immediately.
	msgAttach

	// msgAttachAck confirms one msgAttach back to the leader. The leader
	// starts the MINID flood only after every ack, so label propagation
	// always runs over the fully wired reconstruction tree.
	msgAttachAck

	// msgLabelFlood is the hop-tagged MINID wave: adopt the label if it
	// is smaller than yours, then forward through G′.
	msgLabelFlood

	// msgLabelNotify is the Lemma 8 notification: a node whose component
	// label dropped tells every G neighbor its new label. These are the
	// messages counted in Snapshot.MsgSent.
	msgLabelNotify

	// msgNoNFull is the hello exchanged over a freshly attached edge:
	// the sender's complete neighbor list (with initial IDs), seeding
	// the receiver's NoN table entry for its new neighbor.
	msgNoNFull

	// msgNoNAdd and msgNoNRemove are incremental NoN gossip: the sender
	// gained/lost the named neighbor, so update your view of the
	// sender's neighborhood.
	msgNoNAdd
	msgNoNRemove

	// msgJoinReq is a joining node's hello to one attach target (sent by
	// the supervisor on the newcomer's behalf, like msgDie): it carries
	// the newcomer's initial ID and its full attach set with initial IDs
	// — the NoN state the target needs. The target wires the edge,
	// gossips the gain to its other neighbors, and acks.
	msgJoinReq

	// msgJoinAck is the attach target's reply to the newcomer: its
	// current component label and full neighborhood, completing the
	// newcomer's NoN table entry for that neighbor.
	msgJoinAck

	// msgSnapshot asks a node to report its local state on the reply
	// channel. Instrumentation only; not counted as protocol traffic.
	msgSnapshot

	// msgStop retires a node actor for good (the recovery epoch stops
	// crashed black holes and batch zombies with it).
	msgStop

	// Batch-kill epoch vocabulary (an OpBatch epoch): the footnote-1
	// generalization where a whole victim set dies between healing
	// rounds. The supervisor stages the epoch on quiescence boundaries;
	// these messages carry the per-stage protocol. See batch.go.

	// msgBatchDie is the failure detector's batch order: enter dying
	// mode. It carries the (shared, read-only) victim set so each victim
	// can tell which neighbors are dying with it.
	msgBatchDie

	// msgBatchProbe starts the cluster probe: each victim announces its
	// cluster-root guess (initially itself) to its dying neighbors.
	msgBatchProbe

	// msgClusterProbe is the dead-set relaxation wave: victims flood the
	// minimum victim index through victim-victim edges, so every member
	// of a connected dead cluster converges on the same root — the
	// distributed analogue of core.ClusterDeletions' union-find.
	msgClusterProbe

	// msgBatchCollect orders each victim to report its surviving
	// neighbors (the cluster's healing candidates) to its cluster root.
	msgBatchCollect

	// msgClusterJoin is one victim's candidate contribution, convergecast
	// to the cluster root, which accumulates the union.
	msgClusterJoin

	// msgBatchCommit is the final victim stage: broadcast batch
	// tombstones to surviving neighbors, and (roots only) hand the
	// accumulated candidate set to the elected surviving leader — the
	// lowest-initial-ID candidate — then turn zombie.
	msgBatchCommit

	// msgBatchNotice is the batch tombstone: like msgDeathNotice, but the
	// survivor neither elects a leader nor reports — the cluster root has
	// already appointed the leader, which will solicit reports later.
	msgBatchNotice

	// msgBatchLead is the dying root's handoff to the surviving leader:
	// the cluster's candidate set with initial IDs. The leader parks it
	// until the supervisor starts the cluster's heal.
	msgBatchLead

	// msgBatchHealStart (supervisor → leader) opens one cluster's heal:
	// the leader orders every candidate to probe its G′ component.
	msgBatchHealStart

	// msgCompProbeStart (leader → candidate) seeds the G′ component
	// probe: the candidate floods its own initial ID through G′.
	msgCompProbeStart

	// msgCompProbe is the G′ relaxation wave: nodes forward the smallest
	// candidate initial ID seen, so after quiescence every candidate
	// knows the minimum candidate ID of its (post-deletion, structural)
	// G′ component — exactly the representative rule that
	// core.DeleteBatchAndHeal computes from Gp.ComponentLabels().
	msgCompProbe

	// msgBatchHealWire (supervisor → leader) follows probe quiescence:
	// the leader solicits heal reports, then wires the representatives as
	// DASH's complete binary tree and floods MINID.
	msgBatchHealWire

	// msgBatchReportReq (leader → candidate) solicits one heal report.
	msgBatchReportReq

	// msgBatchReport is a candidate's answer: its healReport plus the
	// component minimum its probe converged on (in the label field).
	msgBatchReport

	// Crash-recovery vocabulary (recovery.go): when the chaos transport
	// fail-stops a node mid-epoch, the supervisor — playing the failure
	// detector — aborts the torn epoch and runs a recovery epoch over
	// the crashed node plus the aborted epoch's victim.

	// msgEpochAbort (supervisor → aborted epoch's region) tears down one
	// epoch's partial work: the receiver unwinds any healing edges it
	// wired for the epoch's victim, discards leader scratch state, and
	// ignores the epoch's remaining coordination traffic.
	msgEpochAbort

	// msgCrashNotice (supervisor → a crash victim's neighbors) is the
	// failure detector's tombstone for a crashed node: like a death
	// notice, but lenient (the neighbor may already have dropped the
	// edge) and with no election or report — the supervisor appoints the
	// recovery leaders itself from its topology mirror.
	msgCrashNotice

	// msgKindCount sizes per-kind counter arrays; keep it last.
	msgKindCount
)

// healReport is what each orphan tells the leader about itself: exactly
// the per-member facts the sequential healer reads from global state
// (initial ID for tie-breaking, current label for the UN partition, δ for
// the binary-tree ordering, and whether its lost edge was a G′ edge).
type healReport struct {
	from     int
	initID   uint64
	curID    uint64
	delta    int
	wasGpNbr bool
}

// nodeSnap is a node's reply to msgSnapshot.
type nodeSnap struct {
	id        int
	curID     uint64
	delta     int
	gNbrs     []int
	gpNbrs    []int
	msgSent   int64
	coordMsgs int64
	nonMsgs   int64
}

// srcSupervisor is the from value of supervisor-originated messages
// (die orders, batch stage orders, joins issued on the newcomer's
// behalf, snapshots). Node indices are non-negative, so the sentinel can
// never collide with a real sender.
const srcSupervisor = -1

// message is the single wire format; kind selects which fields are live.
type message struct {
	kind msgKind
	from int

	// epoch identifies the kill/join/batch operation this message belongs
	// to. The supervisor stamps the epoch's opening messages; every
	// handler stamps its own sends with the epoch of the message it is
	// processing, so an epoch's causal cone shares one ID and the
	// per-epoch quiescence counters are conservative. Epoch 0 is reserved
	// for untracked traffic (snapshots, tests driving raw sends).
	epoch uint64

	// victim identifies the healing round (msgDeathNotice, msgHealReport,
	// msgAttach, msgAttachAck).
	victim int

	// msgHealReport payload.
	report healReport

	// msgAttach payload: connect to peer; leader is where the ack goes.
	peer       int
	peerInitID uint64
	peerCurID  uint64
	leader     int

	// msgLabelFlood / msgLabelNotify payload.
	label uint64
	hops  int

	// msgNoNAdd / msgNoNRemove payload: the neighbor the sender
	// gained/lost. msgNoNFull uses nonNbrs instead. msgClusterJoin and
	// msgBatchLead reuse nonNbrs for candidate sets.
	nonPeer       int
	nonPeerInitID uint64
	nonNbrs       map[int]uint64

	// msgBatchDie payload: the shared, read-only victim set.
	batch map[int]struct{}

	// msgClusterProbe payload: the sender's cluster-root guess.
	root int

	// msgSnapshot reply channel.
	reply chan nodeSnap
}

func (k msgKind) String() string {
	switch k {
	case msgDie:
		return "die"
	case msgDeathNotice:
		return "death-notice"
	case msgHealReport:
		return "heal-report"
	case msgAttach:
		return "attach"
	case msgAttachAck:
		return "attach-ack"
	case msgLabelFlood:
		return "label-flood"
	case msgLabelNotify:
		return "label-notify"
	case msgNoNFull:
		return "non-full"
	case msgNoNAdd:
		return "non-add"
	case msgNoNRemove:
		return "non-remove"
	case msgJoinReq:
		return "join-req"
	case msgJoinAck:
		return "join-ack"
	case msgSnapshot:
		return "snapshot"
	case msgStop:
		return "stop"
	case msgBatchDie:
		return "batch-die"
	case msgBatchProbe:
		return "batch-probe"
	case msgClusterProbe:
		return "cluster-probe"
	case msgBatchCollect:
		return "batch-collect"
	case msgClusterJoin:
		return "cluster-join"
	case msgBatchCommit:
		return "batch-commit"
	case msgBatchNotice:
		return "batch-notice"
	case msgBatchLead:
		return "batch-lead"
	case msgBatchHealStart:
		return "batch-heal-start"
	case msgCompProbeStart:
		return "comp-probe-start"
	case msgCompProbe:
		return "comp-probe"
	case msgBatchHealWire:
		return "batch-heal-wire"
	case msgBatchReportReq:
		return "batch-report-req"
	case msgBatchReport:
		return "batch-report"
	case msgEpochAbort:
		return "epoch-abort"
	case msgCrashNotice:
		return "crash-notice"
	}
	return "unknown"
}
