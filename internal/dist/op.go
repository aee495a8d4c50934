package dist

// The one operation type that crosses between the engines. A driver
// holds its workload as Ops, issues each to the network with
// Network.Issue and applies each to the sequential engine with
// Op.Apply (oracle.go); the network's effective-operation log is a list
// of Ops too, so a crashed run replays through the same apply. Beyond
// the protocol itself, a new operation kind touches this type, Issue and
// Apply, not every driver.

import (
	"errors"
	"fmt"

	"repro/internal/rng"
)

// OpKind discriminates Op.
type OpKind uint8

const (
	// OpKill deletes Victim and heals (core.DeleteAndHeal).
	OpKill OpKind = iota
	// OpJoin adds a node in slot NewID with initial ID InitID, attached
	// to Attach (core.Join).
	OpJoin
	// OpBatch deletes Batch at once and heals per dead cluster
	// (core.DeleteBatchAndHeal). In the effective log this includes
	// crash recoveries, and an empty Batch is an empty round.
	OpBatch
)

// Op is one operation on a network and on its sequential twin. Crashes
// rewrite history — an aborted kill never appears in the effective log,
// and the recovery appears as a batch deletion of the crashed set — so
// a differential harness under faults replays Network.EffectiveOps(),
// not the operations it issued.
type Op struct {
	Kind   OpKind
	Victim int    // OpKill
	Batch  []int  // OpBatch; ascending in the effective log
	NewID  int    // OpJoin: the slot the join lands in (0: not yet known, see Apply)
	Attach []int  // OpJoin, issue order
	InitID uint64 // OpJoin
}

func (op Op) String() string {
	switch op.Kind {
	case OpKill:
		return fmt.Sprintf("kill(%d)", op.Victim)
	case OpJoin:
		return fmt.Sprintf("join(%d←%v, id %#x)", op.NewID, op.Attach, op.InitID)
	case OpBatch:
		return fmt.Sprintf("batch(%v)", op.Batch)
	}
	return fmt.Sprintf("op(%d)", uint8(op.Kind))
}

// ErrRefused is wrapped by the error Issue returns for an op naming a
// victim or attach target that is out of range, dead, crashed, or doomed
// by a pending epoch. A driver whose targets a fault may take first
// skips such an op with errors.Is(err, ErrRefused).
var ErrRefused = errors.New("refused")

// Issue schedules op as a pipelined epoch and returns its handle at
// once; Epoch.Wait blocks until the epoch completes. It is the one way
// to change a network. A join's slot is allocated at issue, so slots
// follow issue order, core's AddNode order, even while earlier epochs
// drain. Issue refuses an op naming a node that is out of range, dead,
// crashed, or doomed by a pending epoch, returning a nil Epoch and an
// error wrapping ErrRefused. The check and the issue are atomic under
// the scheduler lock, so a concurrent chaos crash cannot invalidate the
// choice between them — the race a fault-schedule driver must be
// immune to. Issue also fails when a join lands in a slot other than
// op.NewID; that join has been issued, and its Epoch is returned.
func (nw *Network) Issue(op Op) (*Epoch, error) {
	var ep *Epoch
	switch op.Kind {
	case OpKill:
		ep = nw.pipe.issueKill(op.Victim)
	case OpJoin:
		var v int
		v, ep = nw.pipe.issueJoin(op.Attach, op.InitID)
		if ep != nil && v != op.NewID {
			return ep, fmt.Errorf("dist: %v landed in slot %d", op, v)
		}
	case OpBatch:
		ep = nw.pipe.issueBatch(op.Batch)
	default:
		return nil, fmt.Errorf("dist: cannot issue %v", op)
	}
	if ep == nil {
		return nil, fmt.Errorf("dist: %v: %w", op, ErrRefused)
	}
	return ep, nil
}

// JoinIDs hands out joiners' initial IDs in the order core.Join draws
// them: from one stream, skipping every ID already in play. A driver
// whose joins may be refused (Issue under a fault plan) takes Next for
// each attempt and calls Use only once the join is accepted; a refused
// join's draw is held for the next attempt, so accepted joins consume
// the draws in order and the effective log replays with a fresh copy of
// the same stream.
type JoinIDs struct {
	r    *rng.RNG
	used map[uint64]bool
	next uint64
	held bool
}

// NewJoinIDs draws from r, skipping ids, the initial IDs of the
// network's starting nodes.
func NewJoinIDs(r *rng.RNG, ids []uint64) *JoinIDs {
	j := &JoinIDs{r: r, used: make(map[uint64]bool, len(ids))}
	for _, id := range ids {
		j.used[id] = true
	}
	return j
}

// Next returns the initial ID for the next join attempt.
func (j *JoinIDs) Next() uint64 {
	if !j.held {
		j.next = j.r.Uint64()
		for j.used[j.next] {
			j.next = j.r.Uint64()
		}
		j.held = true
	}
	return j.next
}

// Use marks the ID Next returned as taken by an accepted join.
func (j *JoinIDs) Use() {
	j.used[j.next] = true
	j.held = false
}
