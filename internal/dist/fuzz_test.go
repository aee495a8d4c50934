package dist

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// fuzzGraph is the 8-node configuration the fuzzer churns: the bridged
// triangles plus a pendant pair hung off the second triangle, giving
// the op decoder leaf, bridge, and clique victims to choose from.
func fuzzGraph() *graph.Graph {
	g := graph.New(8)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	g.AddEdge(3, 5)
	g.AddEdge(4, 5)
	g.AddEdge(2, 3)
	g.AddEdge(5, 6)
	g.AddEdge(6, 7)
	return g
}

// decodeFuzzOps turns the leading bytes of data into a valid op script
// against fuzzGraph, tracking issue-order liveness so the script never
// kills a dead node or attaches to one (both are caller-contract
// panics, not protocol states). Returns the ops and the remaining bytes,
// which become the schedule stream.
func decodeFuzzOps(data []byte) ([]Op, []byte) {
	if len(data) == 0 {
		return nil, nil
	}
	nOps := int(data[0])%4 + 1
	data = data[1:]
	alive := make([]int, 0, 8)
	for v := 0; v < 8; v++ {
		alive = append(alive, v)
	}
	kill := func(v int) {
		for i, u := range alive {
			if u == v {
				alive = append(alive[:i], alive[i+1:]...)
				return
			}
		}
	}
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	var ops []Op
	nextID := 8
	for len(ops) < nOps {
		kb, ok := next()
		if !ok {
			break
		}
		// Keep enough survivors for heals to have someone to wire to.
		if len(alive) < 4 {
			break
		}
		switch kb % 3 {
		case 0: // kill
			vb, ok := next()
			if !ok {
				return ops, data
			}
			v := alive[int(vb)%len(alive)]
			ops = append(ops, Op{Kind: OpKill, Victim: v})
			kill(v)
		case 1: // join with 1–2 attach points
			ab, ok := next()
			if !ok {
				return ops, data
			}
			bb, ok := next()
			if !ok {
				return ops, data
			}
			a := alive[int(ab)%len(alive)]
			attach := []int{a}
			if b := alive[int(bb)%len(alive)]; b != a {
				attach = append(attach, b)
			}
			ops = append(ops, Op{Kind: OpJoin, Attach: attach})
			alive = append(alive, nextID)
			nextID++
		case 2: // batch of 2–3 victims
			nb, ok := next()
			if !ok {
				return ops, data
			}
			k := int(nb)%2 + 2
			var batch []int
			for i := 0; i < k && len(alive) > 4; i++ {
				vb, ok := next()
				if !ok {
					break
				}
				v := alive[int(vb)%len(alive)]
				dup := false
				for _, u := range batch {
					if u == v {
						dup = true
					}
				}
				if dup {
					continue
				}
				batch = append(batch, v)
				kill(v)
			}
			if len(batch) > 0 {
				ops = append(ops, Op{Kind: OpBatch, Batch: batch})
			}
		}
	}
	return ops, data
}

// FuzzPipelinedSchedule fuzzes both axes of pipeline nondeterminism at
// once: the operation mix (which kills, joins, and batch kills overlap)
// and the delivery schedule (which (receiver, sender) channel fires
// next, drawn from the fuzz input's tail bytes). Every run must quiesce
// and match the sequential engine bit for bit — the fuzzing analogue of
// the modelcheck package's exhaustive result, trading completeness for
// reach into deeper op mixes. The seed corpus under
// testdata/fuzz/FuzzPipelinedSchedule replays in ordinary `go test`
// runs, so CI exercises these schedules even without -fuzz.
func FuzzPipelinedSchedule(f *testing.F) {
	// Two overlapping kills, FIFO schedule.
	f.Add([]byte{2, 0, 0, 0, 5})
	// Kill + join + batch with a skewed schedule tail.
	f.Add([]byte{3, 0, 0, 1, 3, 4, 2, 1, 0, 1, 9, 3, 7, 1, 5})
	// Batch-heavy script, reversed-ish schedule.
	f.Add([]byte{4, 2, 1, 0, 1, 2, 0, 6, 2, 9, 250, 200, 150, 100, 50, 3})
	// Join-only churn.
	f.Add([]byte{2, 1, 0, 1, 1, 2, 3, 8, 8, 8})

	f.Fuzz(func(t *testing.T, data []byte) {
		ops, sched := decodeFuzzOps(data)
		if len(ops) == 0 {
			t.Skip("no decodable ops")
		}

		// Sequential oracle in issue order, recording each joiner's slot
		// and initial ID for the network to use.
		seq := core.NewState(fuzzGraph(), rng.New(11))
		ids := InitIDs(seq)
		joinR := rng.New(12)
		for i := range ops {
			if err := ops[i].Apply(seq, core.DASH{}, joinR); err != nil {
				t.Fatal(err)
			}
		}

		// Pipelined replica: all ops issued up front for maximal
		// overlap, then driven by the fuzzed schedule stream.
		s := NewSim(fuzzGraph(), ids, HealDASH)
		nw := s.Network()
		eps := make([]*Epoch, 0, len(ops))
		for _, op := range ops {
			eps = append(eps, mustIssue(t, nw, op))
		}
		si := 0
		for steps := 0; ; steps++ {
			evs := s.Enabled()
			if len(evs) == 0 {
				break
			}
			if steps > 100_000 {
				t.Fatalf("schedule did not quiesce after %d deliveries:\n%s", steps, nw.DumpState())
			}
			pick := 0
			if si < len(sched) {
				pick = int(sched[si]) % len(evs)
				si++
			}
			s.Apply(evs[pick])
		}

		for i, ep := range eps {
			if !ep.Done() {
				t.Fatalf("op %d (epoch %d) never completed:\n%s", i, ep.ID(), nw.DumpState())
			}
		}
		if err := nw.Diverges(seq); err != nil {
			t.Fatal(err)
		}
	})
}
