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

	// msgDeathNotice is a single-kill victim's tombstone, sent to each
	// of its G neighbors. It carries no payload beyond the victim's identity:
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

	// msgStop retires a node actor for good (a batch heal stops
	// crashed black holes and batch zombies with it).
	msgStop

	// Batch-heal vocabulary (an OpBatch epoch, and the recovery epoch's
	// shared tail). The supervisor stages the front half itself from
	// its topology mirror: it orders the victims to die and sends the
	// survivors msgCrashNotice tombstones. At each dead cluster's heal it
	// picks the representatives from the mirror and hands them to the
	// cluster's leader with msgBatchHealStart; the reports, wiring and
	// flood that follow are node-driven. See batch.go.

	// msgBatchDie is the failure detector's batch order: archive your
	// counters and turn zombie, a black hole that drains late NoN
	// gossip until the supervisor's msgStop.
	msgBatchDie

	// msgCrashNotice (supervisor → a batch or crash victim's surviving
	// neighbors) is the failure detector's tombstone for a node removed
	// by a batch heal: like a death notice, but lenient (after a crash
	// the neighbor may already have dropped the edge) and with no
	// election or report — the supervisor appoints the cluster leaders
	// itself from its topology mirror.
	msgCrashNotice

	// msgBatchHealStart (supervisor → leader) opens one cluster's heal.
	// It carries the cluster's representatives with their initial IDs
	// (in nonNbrs): per G′ component of the candidates, the one with the
	// lowest initial ID. The leader solicits their heal reports, then
	// wires them as DASH's complete binary tree and floods MINID.
	msgBatchHealStart

	// msgBatchReportReq (leader → representative) solicits one heal
	// report.
	msgBatchReportReq

	// msgBatchReport is a representative's answer: its healReport.
	msgBatchReport

	// Crash-recovery vocabulary (recovery.go): when the chaos transport
	// fail-stops a node mid-epoch, the supervisor — playing the failure
	// detector — aborts the torn epoch and runs a recovery epoch, a
	// batch heal of the crashed node plus the aborted epoch's victim.

	// msgEpochAbort (supervisor → aborted epoch's region) tears down one
	// epoch's partial work: the receiver unwinds any healing edges it
	// wired for the epoch's victim, discards leader scratch state, and
	// ignores the epoch's remaining coordination traffic.
	msgEpochAbort

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
	// msgNoNAdd and msgNoNRemove carry the neighbor the sender gained or
	// lost in peer (and, for an add, its initial ID in peerInitID); a
	// msgJoinReq carries the newcomer's initial ID in peerInitID.
	peer       int
	peerInitID uint64
	peerCurID  uint64
	leader     int

	// msgLabelFlood / msgLabelNotify payload.
	label uint64
	hops  int

	// NoN table payload: a msgNoNFull or msgJoinAck hello, a
	// msgJoinReq's attach set, or msgBatchHealStart's representatives.
	// The receiver owns it, except a join's attach set, which every
	// target's request shares. (The message is copied by value into and
	// out of every mailbox; TestMessageSize pins its size.)
	nonNbrs nonTable

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
	case msgBatchHealStart:
		return "batch-heal-start"
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
