package kggen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"ncexplorer/internal/kg"
)

// worldDigest hashes everything a generated world exposes to the
// engine: the JSON dump, every node's adjacency rows, and for each
// concept its closure extents and specificity bits. Each list is
// length-prefixed so adjacent rows cannot alias.
func worldDigest(t *testing.T, g *kg.Graph) string {
	t.Helper()
	h := sha256.New()
	if err := g.Dump(h); err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	put := func(h hash.Hash, x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	row := func(ids []kg.NodeID) {
		put(h, uint64(len(ids)))
		for _, v := range ids {
			put(h, uint64(uint32(v)))
		}
	}
	for i := 0; i < g.NumNodes(); i++ {
		v := kg.NodeID(i)
		row(g.InstanceNeighbors(v))
		row(g.Broader(v))
		row(g.Narrower(v))
		row(g.Extent(v))
		row(g.ConceptsOf(v))
		if g.IsConcept(v) {
			row(g.ExtentClosure(v, 0))
			row(g.ExtentClosure(v, 5))
			put(h, math.Float64bits(g.Specificity(v)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestWorldDigest pins the generated worlds bit for bit: the graph
// builder's sorts and dedupes, the closure order and the specificity
// table must reproduce exactly what every saved store was scored
// against, or a warm open would rescore a different world.
func TestWorldDigest(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"tiny", Tiny(), "6483d4e099f89444670d109b018702deaf2f66f7ba5a92aa4af3181aa8efb300"},
		{"default", Default(), "241645b1eef9705251385853e30219b9d355bf4827774170f67e6deafa36fdce"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, _ := MustGenerate(tc.cfg)
			if got := worldDigest(t, g); got != tc.want {
				t.Fatalf("world digest = %s, want %s", got, tc.want)
			}
		})
	}
}
