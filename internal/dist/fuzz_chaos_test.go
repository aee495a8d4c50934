package dist

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist/chaos"
	"repro/internal/rng"
)

// decodeFaultPlan turns a fuzz byte stream into a chaos plan: seed,
// moderate drop/dup/delay rates (≤ 64/256 each, so runs stay fast), and
// up to two wildcard crash points over the node-to-node kinds a crash
// may legally interrupt. Empty input means no plan — the direct
// transport, which keeps the fault-free path inside the fuzz corpus.
func decodeFaultPlan(data []byte) *chaos.Plan {
	if len(data) == 0 {
		return nil
	}
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	p := &chaos.Plan{
		Seed:     uint64(at(0)) + 1,
		Drop:     float64(at(1)%64) / 256,
		Dup:      float64(at(2)%64) / 256,
		Delay:    float64(at(3)%64) / 256,
		MaxDelay: time.Duration(1+at(4)%4) * time.Millisecond,
		RTO:      time.Millisecond,
	}
	kinds := [...]string{"heal-report", "attach", "attach-ack", "label-notify"}
	for i := 0; i < int(at(5))%3; i++ {
		p.Crashes = append(p.Crashes, chaos.CrashPoint{
			Target: chaos.Wildcard,
			Kind:   kinds[int(at(6+2*i))%len(kinds)],
			Nth:    int(at(7+2*i))%3 + 1,
		})
	}
	return p
}

// runChaosCase is the body shared by FuzzChaosSchedule and the seed
// coverage test: decode an op script and a fault plan, run the script
// against a chaos-transport network with fuzz-chosen pacing, drain, and
// verify the drained state bit for bit against the sequential replay of
// the network's own effective-operation log (crashes rewrite history, so
// the issued script is not the oracle — the log is). Returns the
// transport's fault counters and whether a chaos transport was in play.
func runChaosCase(t *testing.T, opsData, sched, faults []byte) (ChaosStats, bool) {
	t.Helper()
	ops, _ := decodeFuzzOps(opsData)
	if len(ops) == 0 {
		t.Skip("no decodable ops")
	}
	plan := decodeFaultPlan(faults)

	base := core.NewState(fuzzGraph(), rng.New(11))
	ids := InitIDs(base)
	nw, err := NewChaos(fuzzGraph(), ids, HealDASH, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	// Join IDs come from the stream the oracle replay draws from, and
	// slots follow the accepted joins. An op a fault got to first is
	// refused and skipped.
	joinIDs := NewJoinIDs(rng.New(12), ids)
	slot := len(ids)
	var eps []*Epoch
	si := 0
	pace := func() {
		var b byte
		if si < len(sched) {
			b = sched[si]
			si++
		}
		if b%3 == 0 && len(eps) > 0 {
			if err := eps[len(eps)-1].Wait(testTimeout); err != nil {
				t.Fatalf("paced wait: %v", err)
			}
		}
	}
	for _, op := range ops {
		if op.Kind == OpJoin {
			op.NewID, op.InitID = slot, joinIDs.Next()
		}
		ep, err := nw.Issue(op)
		switch {
		case errors.Is(err, ErrRefused): // a fault got to a target first
		case err != nil:
			t.Fatal(err)
		default:
			eps = append(eps, ep)
			if op.Kind == OpJoin {
				joinIDs.Use()
				slot++
			}
		}
		pace()
	}
	if err := nw.Drain(testTimeout); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Oracle: sequential replay of the effective-operation log.
	seq := core.NewState(fuzzGraph(), rng.New(11))
	if err := ReplayEffective(seq, nw.EffectiveOps(), core.DASH{}, rng.New(12)); err != nil {
		t.Fatal(err)
	}
	if err := nw.Diverges(seq); err != nil {
		t.Fatalf("effective-op replay: %v", err)
	}
	stats, chaotic := nw.ChaosTransportStats()
	return stats, chaotic
}

// chaosFuzzSeeds is the seed corpus for FuzzChaosSchedule, shared with
// TestChaosFuzzSeedsCoverFaults so ordinary `go test` runs prove the
// corpus still reaches every fault class.
var chaosFuzzSeeds = []struct {
	name               string
	ops, sched, faults []byte
}{
	// A single kill with a crash at the first heal-report delivery: the
	// round leader fail-stops mid-heal and the supervisor must abort the
	// kill and recover {leader, victim} as one batch.
	{"leader-crash", []byte{0, 0, 0}, nil, []byte{9, 0, 0, 0, 0, 1, 0, 0}},
	// Two joins under a ~25% duplication rate: the attach and attach-ack
	// frames get duplicated and the receivers must dedup them.
	{"dup-attach", []byte{2, 1, 0, 1, 1, 2, 3}, []byte{1}, []byte{5, 0, 63, 0, 1, 0}},
	// Two kills under a ~25% drop rate: heals complete only through
	// retransmission.
	{"drop-kills", []byte{2, 0, 0, 0, 3}, nil, []byte{17, 63, 0, 0, 2, 0}},
	// A batch kill under mixed light loss and heavy delay/reorder.
	{"delay-batch", []byte{4, 2, 1, 0, 1, 2, 0, 6, 2, 9}, []byte{0, 2, 1}, []byte{33, 16, 16, 63, 3, 0}},
	// Fault-free baseline: empty fault input decodes to the direct
	// transport, keeping the plain path in the corpus.
	{"baseline", []byte{3, 0, 0, 1, 3, 4, 2, 1, 0, 1}, []byte{5, 5, 5}, nil},
}

// FuzzChaosSchedule fuzzes the hostile-network axes on top of the op
// mix: the fault plan (drop/dup/delay rates, crash points) and the issue
// pacing. Every run must drain and match the sequential replay of its
// effective-operation log bit for bit — drops, duplicates, and delays
// must be invisible above the reliable channel, and crashes must rewrite
// history exactly as the recovery protocol claims.
func FuzzChaosSchedule(f *testing.F) {
	for _, s := range chaosFuzzSeeds {
		f.Add(s.ops, s.sched, s.faults)
	}
	f.Fuzz(func(t *testing.T, opsData, sched, faults []byte) {
		runChaosCase(t, opsData, sched, faults)
	})
}

// TestChaosFuzzSeedsCoverFaults replays the seed corpus and asserts the
// union of transport counters covers every fault class — drops, dups,
// delays, retransmissions, and at least one fired crash — so corpus rot
// (a seed decoding to a toothless plan) fails loudly.
func TestChaosFuzzSeedsCoverFaults(t *testing.T) {
	var total ChaosStats
	for _, s := range chaosFuzzSeeds {
		t.Run(s.name, func(t *testing.T) {
			stats, chaotic := runChaosCase(t, s.ops, s.sched, s.faults)
			if s.faults == nil {
				if chaotic {
					t.Fatal("empty fault input built a chaos transport")
				}
				return
			}
			if !chaotic {
				t.Fatal("fault input did not build a chaos transport")
			}
			total.Drops += stats.Drops
			total.Dups += stats.Dups
			total.Delays += stats.Delays
			total.Retransmits += stats.Retransmits
			total.Crashes += stats.Crashes
		})
	}
	if total.Drops == 0 || total.Dups == 0 || total.Delays == 0 || total.Retransmits == 0 {
		t.Fatalf("seed corpus lost fault coverage: %+v", total)
	}
	if total.Crashes == 0 {
		t.Fatal("no seed crashed a node — the leader-crash corpus entry lost its coverage")
	}
}
