package dist

import "slices"

// The node actor's local tables are slices sorted by node index, not Go
// maps: most messages a node handles (83% of dist-churn's) are one-hop
// bookkeeping updates (NoN gossip, label notifications) that look one
// neighbor up and perhaps insert or delete one entry, and on a node that
// has not run for a while a binary search over one short array is
// cheaper than a map access. Iteration runs in ascending node order, so
// broadcasts are deterministic and Sim.Fingerprint writes the tables as
// they are.

// nonEntry is one row of a NoN table: a node and its initial ID.
type nonEntry struct {
	v  int
	id uint64
}

// nonTable is a neighborhood with initial IDs, sorted by node. It is
// the type of a NoN table entry (nbrInfo.nbrs) and of every NoN payload:
// the msgNoNFull and msgJoinAck hellos, a buffered hello, a join's
// attach set and a batch cluster's representatives. A nil table means
// "not yet known", which the gossip handlers keep distinct from a known,
// empty one: set and remove never turn a non-nil table nil.
type nonTable []nonEntry

// search returns the position of v in t, or where it would be inserted,
// and whether it is present.
func (t nonTable) search(v int) (int, bool) {
	lo, hi := 0, len(t)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t[m].v < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t) && t[lo].v == v
}

// tableCap is the capacity given to a NoN table of n rows: room for a
// few gossip inserts before the table must move. A full table grows by
// the same rule rather than doubling. Under churn a table's size stays
// about level, and every neighbor of a hub holds a copy of the hub's
// table, so exact-size tables that double on their first insert
// allocated a third more per churn op than the maps they replaced.
func tableCap(n int) int { return n + n/4 + 2 }

// set records v with initial ID id, inserting it in order if absent.
func (t *nonTable) set(v int, id uint64) {
	i, ok := t.search(v)
	if ok {
		(*t)[i].id = id
		return
	}
	if len(*t) == cap(*t) {
		grown := make(nonTable, len(*t), tableCap(len(*t)))
		copy(grown, *t)
		*t = grown
	}
	*t = slices.Insert(*t, i, nonEntry{v, id})
}

// remove deletes v if present.
func (t *nonTable) remove(v int) {
	if i, ok := t.search(v); ok {
		*t = slices.Delete(*t, i, i+1)
	}
}

// nbrList is a node's G neighbors, sorted by node.
type nbrList []nbrInfo

// search returns the position of v in l, or where it would be inserted,
// and whether it is present.
func (l nbrList) search(v int) (int, bool) {
	lo, hi := 0, len(l)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if l[m].v < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(l) && l[lo].v == v
}

// find returns v's entry, or nil when v is not a neighbor. The pointer
// is valid until the list next changes.
func (l nbrList) find(v int) *nbrInfo {
	if i, ok := l.search(v); ok {
		return &l[i]
	}
	return nil
}

// insert adds info, replacing any entry for the same node.
func (l *nbrList) insert(info nbrInfo) {
	i, ok := l.search(info.v)
	if ok {
		(*l)[i] = info
		return
	}
	*l = slices.Insert(*l, i, info)
}

// remove deletes v and returns its entry, if present.
func (l *nbrList) remove(v int) (nbrInfo, bool) {
	i, ok := l.search(v)
	if !ok {
		return nbrInfo{}, false
	}
	info := (*l)[i]
	*l = slices.Delete(*l, i, i+1)
	return info, true
}

// hello returns a fresh NoN table of l: every neighbor with its initial
// ID, the payload of msgNoNFull and msgJoinAck.
func (l nbrList) hello() nonTable {
	t := make(nonTable, len(l), tableCap(len(l)))
	for i := range l {
		t[i] = nonEntry{l[i].v, l[i].initID}
	}
	return t
}

// nodeSet is a sorted set of nodes (a node's G′ neighbors).
type nodeSet []int

func (s nodeSet) has(v int) bool {
	_, ok := slices.BinarySearch(s, v)
	return ok
}

// add inserts v if absent.
func (s *nodeSet) add(v int) {
	if i, ok := slices.BinarySearch(*s, v); !ok {
		*s = slices.Insert(*s, i, v)
	}
}

// remove deletes v and reports whether it was present.
func (s *nodeSet) remove(v int) bool {
	i, ok := slices.BinarySearch(*s, v)
	if ok {
		*s = slices.Delete(*s, i, i+1)
	}
	return ok
}
