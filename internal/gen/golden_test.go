package gen

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// rowsHash hashes g's node count and every adjacency row in node order,
// so two graphs hash alike only if every row holds the same neighbours
// in the same order.
func rowsHash(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(x int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		h.Write(buf[:])
	}
	put(int32(g.N()))
	for v := 0; v < g.N(); v++ {
		row := g.Neighbors(v)
		put(int32(len(row)))
		for _, u := range row {
			put(u)
		}
	}
	return h.Sum64()
}

// TestBarabasiAlbertGolden pins the generator's output, and the RNG
// state it leaves behind, to the graphs of the AddEdge-at-a-time
// implementation. Every workload's graph comes from here, so a rewrite
// of the generator must reproduce these hashes exactly.
func TestBarabasiAlbertGolden(t *testing.T) {
	cases := []struct {
		n, m     int
		seed     uint64
		rows     uint64 // rowsHash of the graph
		nextDraw uint64 // the RNG's next Uint64 after generation
	}{
		{10, 1, 1, 0x6d1599b73aadb0f8, 0x9fd7e146dc3fd5e5},
		{4096, 3, 1, 0x0dfb65259f68c03f, 0xd94c289798159bda},
		{4096, 3, 2, 0xc4798790feab2537, 0x884f223f2e17583a},
		{4096, 3, 3, 0x0377567e3331b05f, 0xf6c2892348ea47e9},
		{100_000, 3, 1, 0x0fa5259af66cd84f, 0x370d17d5d3305d28},
	}
	for _, c := range cases {
		r := rng.New(c.seed)
		g := BarabasiAlbert(c.n, c.m, r)
		rows, next := rowsHash(g), r.Uint64()
		if rows != c.rows || next != c.nextDraw {
			t.Errorf("BarabasiAlbert(%d, %d, seed %d): rows %#x, next draw %#x; want %#x, %#x",
				c.n, c.m, c.seed, rows, next, c.rows, c.nextDraw)
		}
	}
}
