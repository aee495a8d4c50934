package dist

import (
	"maps"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/gen"
	"repro/internal/rng"
)

// checkTable holds t to the map model: strictly ascending nodes, the
// same rows, and a search that finds exactly the model's keys.
func checkTable(t *testing.T, step int, tab nonTable, model map[int]uint64) {
	t.Helper()
	if len(tab) != len(model) {
		t.Fatalf("step %d: %d rows, model has %d", step, len(tab), len(model))
	}
	for i, r := range tab {
		if i > 0 && tab[i-1].v >= r.v {
			t.Fatalf("step %d: rows out of order at %d: %v", step, i, tab)
		}
		if id, ok := model[r.v]; !ok || id != r.id {
			t.Fatalf("step %d: row %v, model has (%d, %v)", step, r, id, ok)
		}
	}
	for v := -1; v <= 40; v++ {
		i, ok := tab.search(v)
		_, want := model[v]
		if ok != want || ok && tab[i].v != v || !ok && i < len(tab) && tab[i].v < v {
			t.Fatalf("step %d: search(%d) = (%d, %v) in %v", step, v, i, ok, tab)
		}
	}
}

// TestNonTableMatchesMap drives nonTable, nbrList and nodeSet through
// random set/remove sequences against a map model. A known table stays
// known (non-nil) however empty it gets: the gossip handlers tell a
// neighbor whose NoN table has not arrived (nil) from one whose
// neighborhood is empty.
func TestNonTableMatchesMap(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		tab := make(nonTable, 0, r.Intn(4))
		var nbrs nbrList
		var set nodeSet
		model := map[int]uint64{}
		for step := 0; step < 100; step++ {
			v := r.Intn(40)
			if r.Intn(3) == 0 {
				tab.remove(v)
				info, ok := nbrs.remove(v)
				_, want := model[v]
				if ok != want || ok && (info.v != v || info.initID != model[v]) {
					t.Fatalf("step %d: nbrList.remove(%d) = (%+v, %v), model (%d, %v)", step, v, info, ok, model[v], want)
				}
				if got := set.remove(v); got != want {
					t.Fatalf("step %d: nodeSet.remove(%d) = %v, want %v", step, v, got, want)
				}
				delete(model, v)
			} else {
				id := r.Uint64()
				tab.set(v, id)
				nbrs.insert(nbrInfo{v: v, initID: id})
				set.add(v)
				model[v] = id
			}
			if tab == nil {
				t.Fatalf("step %d: a known table turned nil", step)
			}
			checkTable(t, step, tab, model)
			if hello := nbrs.hello(); !slices.Equal(hello, tab) {
				t.Fatalf("step %d: nbrList hello %v, table %v", step, hello, tab)
			}
			if want := slices.Sorted(maps.Keys(model)); !slices.Equal([]int(set), want) {
				t.Fatalf("step %d: nodeSet %v, want %v", step, set, want)
			}
			for v := -1; v <= 40; v++ {
				_, want := model[v]
				if got := nbrs.find(v); (got != nil) != want || want && got.v != v {
					t.Fatalf("step %d: find(%d) = %+v, want present=%v", step, v, got, want)
				}
				if set.has(v) != want {
					t.Fatalf("step %d: has(%d) = %v, want %v", step, v, !want, want)
				}
			}
		}
	}
	var unknown nonTable
	if unknown.remove(3); unknown != nil {
		t.Fatal("remove made an unknown table known")
	}
	if empty := (nbrList{}).hello(); empty == nil {
		t.Fatal("the hello of an empty neighborhood is nil, which reads as not yet known")
	}
}

// TestNoNTablesDoNotAlias grows and shrinks every NoN table of a
// bootstrapped network, whose tables are windows of one array per node,
// and checks that no write lands in another table.
func TestNoNTablesDoNotAlias(t *testing.T) {
	r := rng.New(3)
	g := gen.BarabasiAlbert(64, 3, r)
	ids := make([]uint64, g.N())
	for v := range ids {
		ids[v] = r.Uint64()
	}
	nw := assemble(g, ids, HealDASH)
	for v := 0; v < g.N(); v++ {
		nd := nw.node(v)
		want := make([]map[int]uint64, len(nd.gNbrs))
		for i, info := range nd.gNbrs {
			want[i] = map[int]uint64{}
			for _, e := range info.nbrs {
				want[i][e.v] = e.id
			}
		}
		for i := range nd.gNbrs {
			// Free a slot inside the window, refill it, then overflow.
			tab := &nd.gNbrs[i].nbrs
			first := (*tab)[0].v
			tab.remove(first)
			delete(want[i], first)
			for _, x := range []int{1000 + v, 2000 + v, 3000 + v} {
				tab.set(x, uint64(x))
				want[i][x] = uint64(x)
			}
		}
		for i, info := range nd.gNbrs {
			checkTable(t, v, info.nbrs, want[i])
		}
	}
}

// TestMessageSize pins the wire struct's size: every mailbox push and pop
// copies a message by value.
func TestMessageSize(t *testing.T) {
	if got := unsafe.Sizeof(message{}); got > 152 {
		t.Fatalf("message is %d bytes, want at most 152", got)
	}
}
