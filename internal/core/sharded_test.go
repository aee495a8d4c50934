package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
)

// shardOp is one operation of a pre-generated churn stream, so the
// sequential and sharded engines can apply bit-identical inputs.
type shardOp struct {
	kill   bool
	v      int   // kill victim
	attach []int // join targets
}

// genShardOps generates a kill/join stream against a simulated alive
// set (joins get deterministic indices n, n+1, ...), so the stream is
// a pure function of the seed.
func genShardOps(n, count int, joinEvery int, seed uint64) []shardOp {
	r := rng.New(seed)
	alive := make([]int, n)
	for i := range alive {
		alive[i] = i
	}
	next := n
	ops := make([]shardOp, 0, count)
	for i := 0; i < count && len(alive) > 4; i++ {
		if joinEvery > 0 && i%joinEvery == joinEvery-1 {
			k := 1 + r.Intn(3)
			attach := make([]int, 0, k)
			for len(attach) < k {
				u := alive[r.Intn(len(alive))]
				dup := false
				for _, w := range attach {
					if w == u {
						dup = true
					}
				}
				if !dup {
					attach = append(attach, u)
				}
			}
			ops = append(ops, shardOp{attach: attach, v: next})
			alive = append(alive, next)
			next++
			continue
		}
		j := r.Intn(len(alive))
		v := alive[j]
		alive[j] = alive[len(alive)-1]
		alive = alive[:len(alive)-1]
		ops = append(ops, shardOp{kill: true, v: v})
	}
	return ops
}

// buildPair constructs two bit-identical states from the same seeds.
func buildPair(n, m int, seed uint64) (*State, *State) {
	a := NewState(gen.BarabasiAlbert(n, m, rng.New(seed)), rng.New(seed+1))
	b := NewState(gen.BarabasiAlbert(n, m, rng.New(seed)), rng.New(seed+1))
	return a, b
}

// requireStateEqual demands bit-identical topology, labels, δ inputs,
// weights, message counts, and round/flood accounting.
func requireStateEqual(t *testing.T, want, got *State, ctx string) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", ctx, fmt.Sprintf(format, args...))
	}
	if !want.G.Equal(got.G) {
		fail("G diverged")
	}
	if !want.Gp.Equal(got.Gp) {
		fail("G' diverged")
	}
	if want.G.NumAlive() != got.G.NumAlive() || want.G.NumEdges() != got.G.NumEdges() {
		fail("G counters diverged")
	}
	if want.N() != got.N() {
		fail("node counts diverged: %d vs %d", want.N(), got.N())
	}
	for v := 0; v < want.N(); v++ {
		if want.initID[v] != got.initID[v] {
			fail("initID[%d]: %d vs %d", v, want.initID[v], got.initID[v])
		}
		if want.curID[v] != got.curID[v] {
			fail("curID[%d]: %d vs %d", v, want.curID[v], got.curID[v])
		}
		if want.initDeg[v] != got.initDeg[v] {
			fail("initDeg[%d]: %d vs %d", v, want.initDeg[v], got.initDeg[v])
		}
		if want.weight[v] != got.weight[v] {
			fail("weight[%d]: %d vs %d", v, want.weight[v], got.weight[v])
		}
		if want.idChanges[v] != got.idChanges[v] {
			fail("idChanges[%d]: %d vs %d", v, want.idChanges[v], got.idChanges[v])
		}
		if want.msgSent[v] != got.msgSent[v] {
			fail("msgSent[%d]: %d vs %d", v, want.msgSent[v], got.msgSent[v])
		}
		if want.msgRecv[v] != got.msgRecv[v] {
			fail("msgRecv[%d]: %d vs %d", v, want.msgRecv[v], got.msgRecv[v])
		}
	}
	if want.rounds != got.rounds {
		fail("rounds: %d vs %d", want.rounds, got.rounds)
	}
	if want.joined != got.joined {
		fail("joined: %d vs %d", want.joined, got.joined)
	}
	if want.droppedWeight != got.droppedWeight {
		fail("droppedWeight: %d vs %d", want.droppedWeight, got.droppedWeight)
	}
	if want.floodDepthSum != got.floodDepthSum {
		fail("floodDepthSum: %d vs %d", want.floodDepthSum, got.floodDepthSum)
	}
	if want.maxFloodDepth != got.maxFloodDepth {
		fail("maxFloodDepth: %d vs %d", want.maxFloodDepth, got.maxFloodDepth)
	}
	if want.TotalWeight() != got.TotalWeight() {
		fail("TotalWeight: %d vs %d", want.TotalWeight(), got.TotalWeight())
	}
}

// applySequential replays ops through the plain sequential engine.
func applySequential(st *State, h Healer, ops []shardOp, idSeed uint64) {
	idR := rng.New(idSeed)
	for _, op := range ops {
		if op.kill {
			st.DeleteAndHeal(op.v, h)
		} else {
			if got := st.Join(op.attach, idR); got != op.v {
				panic(fmt.Sprintf("join index diverged: %d vs %d", got, op.v))
			}
		}
	}
}

// TestShardedDifferentialConcurrent is the randomized differential
// property test of the tentpole: the same churn stream, committed
// concurrently through the scheduler at several worker counts and
// healers, must leave a State bit-identical to the sequential engine —
// topology, G′, labels, δ inputs, weights, Lemma 8 message counts, and
// Lemma 9 flood accounting. Run under -race this doubles as the memory-
// model check for the whole commit path.
func TestShardedDifferentialConcurrent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n, m = 400, 3
	ops := genShardOps(n, 300, 3, 0xabcde)
	for _, h := range []Healer{DASH{}, SDASH{}} {
		for _, workers := range []int{1, 4} {
			for _, shards := range []int{1, 8} {
				ctx := fmt.Sprintf("%s/workers=%d/shards=%d", h.Name(), workers, shards)
				seq, conc := buildPair(n, m, 42)
				applySequential(seq, h, ops, 0x1d5eed)

				ss := NewShardedState(conc, shards)
				sched := NewShardScheduler(ss, h, workers)
				idR := rng.New(0x1d5eed)
				for i, op := range ops {
					if op.kill {
						sched.Kill(op.v, nil)
					} else {
						if got := sched.Join(op.attach, idR, nil); got != op.v {
							t.Fatalf("%s: join index diverged: %d vs %d", ctx, got, op.v)
						}
					}
					if i%97 == 0 {
						// Mid-stream barrier: counters must already be exact.
						sched.Barrier()
						if conc.G.NumAlive() != ss.cm.sg.NumAlive() {
							t.Fatalf("%s: barrier alive count mismatch", ctx)
						}
					}
				}
				sched.Close()
				requireStateEqual(t, seq, conc, ctx)
			}
		}
	}
}

// TestShardedDifferentialKillsOnly hammers the pure-deletion path (no
// join mini-barriers), which maximizes in-flight commit overlap.
func TestShardedDifferentialKillsOnly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n, m = 500, 2
	ops := genShardOps(n, 400, 0, 0xf00d)
	seq, conc := buildPair(n, m, 7)
	applySequential(seq, DASH{}, ops, 1)

	ss := NewShardedState(conc, 4)
	sched := NewShardScheduler(ss, DASH{}, 4)
	for _, op := range ops {
		sched.Kill(op.v, nil)
	}
	sched.Close()
	requireStateEqual(t, seq, conc, "kills-only")
}

// TestShardedUniversalFallback forces the region cap low enough that
// most kills take the drain-and-serialize path and checks that the mix
// of universal and concurrent commits still matches the sequential
// engine exactly.
func TestShardedUniversalFallback(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n, m = 200, 3
	ops := genShardOps(n, 150, 4, 0xcafe)
	seq, conc := buildPair(n, m, 99)
	applySequential(seq, DASH{}, ops, 2)

	ss := NewShardedState(conc, 4)
	sched := NewShardScheduler(ss, DASH{}, 4)
	sched.regionCap = 6
	idR := rng.New(2)
	for _, op := range ops {
		if op.kill {
			sched.Kill(op.v, nil)
		} else {
			sched.Join(op.attach, idR, nil)
		}
	}
	if sched.Universals() == 0 {
		t.Fatal("expected universal fallbacks with regionCap=6")
	}
	sched.Close()
	requireStateEqual(t, seq, conc, "universal-fallback")
}

// TestShardedConflictChain builds a line graph — every kill's region
// overlaps its neighbors' — so admission must chain conflicting
// commits in issue order; the result must still be exact.
func TestShardedConflictChain(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	build := func() *State {
		g := gen.Line(64)
		return NewState(g, rng.New(5))
	}
	victims := []int{1, 3, 5, 2, 30, 31, 32, 33, 60, 58, 59, 10, 12, 11}
	seq := build()
	for _, v := range victims {
		seq.DeleteAndHeal(v, DASH{})
	}
	conc := build()
	ss := NewShardedState(conc, 4)
	sched := NewShardScheduler(ss, DASH{}, 4)
	for _, v := range victims {
		sched.Kill(v, nil)
	}
	sched.Close()
	requireStateEqual(t, seq, conc, "conflict-chain")
}

// TestShardedCommitOrderExhaustive is the small-config interleaving
// check in the style of internal/dist/modelcheck: for small graphs and
// sets of region-disjoint operations, EVERY commit completion order is
// enumerated (the scheduler's only nondeterminism — admission is
// serial) by applying the commit bodies through the sharded primitives
// in each permutation, and every ordering must produce a State
// bit-identical to the sequential engine applying issue order. This is
// the executable form of the commutativity argument: disjoint regions
// touch disjoint plain state, and all shared counters are commutative
// sums or max-merges.
func TestShardedCommitOrderExhaustive(t *testing.T) {
	const n = 24
	// Three well-separated victims on a ring: regions {v-1, v, v+1} are
	// pairwise disjoint, plus a join attached far from all of them.
	type cfg struct {
		name  string
		kills []int
		join  []int // attach set, nil = no join
	}
	configs := []cfg{
		{"two-kills", []int{2, 10}, nil},
		{"three-kills", []int{2, 10, 18}, nil},
		{"two-kills-join", []int{2, 10}, []int{14, 15}},
	}
	for _, c := range configs {
		nops := len(c.kills)
		if c.join != nil {
			nops++
		}
		perms := permutations(nops)
		for _, h := range []Healer{DASH{}, SDASH{}} {
			seq := NewState(gen.Ring(n), rng.New(3))
			idR := rng.New(77)
			for _, v := range c.kills {
				seq.DeleteAndHeal(v, h)
			}
			if c.join != nil {
				seq.Join(c.join, idR)
			}
			for _, perm := range perms {
				conc := NewState(gen.Ring(n), rng.New(3))
				ss := NewShardedState(conc, 4)
				// Admission effects in issue order (like the serial
				// admission goroutine): allocate the join node first so
				// RNG draws and indices match, then commit bodies in the
				// permuted completion order.
				idR2 := rng.New(77)
				joinNode := -1
				if c.join != nil {
					joinNode = ss.AdmitJoin(c.join, idR2)
				}
				for _, oi := range perm {
					if oi < len(c.kills) {
						ss.CommitKill(c.kills[oi], h)
					} else {
						ss.CommitJoin(joinNode, c.join)
					}
				}
				ss.Sync()
				requireStateEqual(t, seq, conc,
					fmt.Sprintf("%s/%s/perm=%v", c.name, h.Name(), perm))
			}
		}
	}
}

// declaredSDASH is a healer the sharded path has never heard of: it
// wraps SDASH and declares RegionLocal itself. Counting heals proves
// every commit went through its Heal.
type declaredSDASH struct{ heals *atomic.Int64 }

func (declaredSDASH) Name() string { return "declared-SDASH" }
func (declaredSDASH) RegionLocal() {}
func (h declaredSDASH) Heal(s *State, d Deletion) HealResult {
	h.heals.Add(1)
	return SDASH{}.Heal(s, d)
}

// TestShardedDifferentialDeclaredHealer runs the churn differential with
// a healer that is neither DASH nor SDASH but declares RegionLocal: the
// sharded path must run whatever Heal it is given, and the result must
// equal the sequential engine running the same healer.
func TestShardedDifferentialDeclaredHealer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n, m = 400, 3
	ops := genShardOps(n, 300, 3, 0xbeef)
	var seqHeals, concHeals atomic.Int64
	seq, conc := buildPair(n, m, 17)
	applySequential(seq, declaredSDASH{&seqHeals}, ops, 3)

	h := declaredSDASH{&concHeals}
	if !SupportsSharded(h) {
		t.Fatal("a healer declaring RegionLocal must support the sharded path")
	}
	sched := NewShardScheduler(NewShardedState(conc, 8), h, 4)
	idR := rng.New(3)
	for _, op := range ops {
		if op.kill {
			sched.Kill(op.v, nil)
		} else {
			sched.Join(op.attach, idR, nil)
		}
	}
	sched.Close()
	requireStateEqual(t, seq, conc, "declared-SDASH")
	if got, want := concHeals.Load(), seqHeals.Load(); got != want || got == 0 {
		t.Fatalf("sharded path ran the wrapper's Heal %d times, sequential %d", got, want)
	}
}

// permutations returns all permutations of [0, n).
func permutations(n int) [][]int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), idx...))
			return
		}
		for i := k; i < n; i++ {
			idx[k], idx[i] = idx[i], idx[k]
			rec(k + 1)
			idx[k], idx[i] = idx[i], idx[k]
		}
	}
	rec(0)
	return out
}
