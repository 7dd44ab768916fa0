package cluster

import (
	"encoding/json"
	"testing"

	"ehna/internal/graph"
)

func specs(names ...string) []ShardSpec {
	out := make([]ShardSpec, len(names))
	for i, n := range names {
		out[i] = ShardSpec{Name: n, Endpoints: []string{"http://" + n}}
	}
	return out
}

// TestShardMapBalance checks the ring spreads a large id population
// across shards without gross skew, and that placement is a pure
// function of (map, id).
func TestShardMapBalance(t *testing.T) {
	m, err := NewShardMap(1, specs("a", "b", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 40000
	counts := make([]int, len(m.Shards))
	for id := 0; id < n; id++ {
		counts[m.Owner(graph.NodeID(id))]++
	}
	mean := n / len(m.Shards)
	for si, c := range counts {
		if c < mean/2 || c > mean*2 {
			t.Fatalf("shard %d owns %d of %d ids (mean %d): ring badly skewed, counts=%v", si, c, n, mean, counts)
		}
	}
	// Determinism: a rebuilt map places every id identically.
	m2, err := NewShardMap(1, specs("a", "b", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 1000; id++ {
		if m.Owner(graph.NodeID(id)) != m2.Owner(graph.NodeID(id)) {
			t.Fatalf("id %d placed differently by identical maps", id)
		}
	}
}

// TestShardMapRebalanceMovesFewKeys pins the consistent-hashing
// property: adding a shard moves roughly 1/n of the keys, and every
// moved key moves TO the new shard — never between surviving shards.
func TestShardMapRebalanceMovesFewKeys(t *testing.T) {
	old, err := NewShardMap(1, specs("a", "b", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	next, err := NewShardMap(2, specs("a", "b", "c", "d", "e"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 40000
	moved := 0
	for id := 0; id < n; id++ {
		o, w := old.Owner(graph.NodeID(id)), next.Owner(graph.NodeID(id))
		if o == w {
			continue
		}
		moved++
		if next.Shards[w].Name != "e" {
			t.Fatalf("id %d moved from %s to %s — keys may only move to the new shard",
				id, old.Shards[o].Name, next.Shards[w].Name)
		}
	}
	// Expect ~n/5 moved; allow a wide band for vnode variance.
	if lo, hi := n/10, n*3/10; moved < lo || moved > hi {
		t.Fatalf("adding 1 of 5 shards moved %d of %d keys, want within [%d,%d]", moved, n, lo, hi)
	}
}

// TestShardMapJSONRoundTrip checks a marshaled map reparses into
// identical placement (the router loads its map from a flag/file).
func TestShardMapJSONRoundTrip(t *testing.T) {
	m, err := NewShardMap(7, []ShardSpec{
		{Name: "a", Endpoints: []string{"http://h1:7070", "http://h2:7070"}},
		{Name: "b", Endpoints: []string{"http://h3:7070"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ParseShardMap(data)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Version != 7 || len(m2.Shards) != 2 || len(m2.Shards[0].Endpoints) != 2 {
		t.Fatalf("round trip lost structure: %+v", m2)
	}
	for id := 0; id < 2000; id++ {
		if m.Owner(graph.NodeID(id)) != m2.Owner(graph.NodeID(id)) {
			t.Fatalf("id %d placed differently after JSON round trip", id)
		}
	}
}

// TestShardMapValidation rejects the constructions the router must
// never boot with.
func TestShardMapValidation(t *testing.T) {
	if _, err := NewShardMap(1, nil); err == nil {
		t.Fatal("empty map accepted")
	}
	if _, err := NewShardMap(1, []ShardSpec{{Name: "", Endpoints: []string{"x"}}}); err == nil {
		t.Fatal("unnamed shard accepted")
	}
	if _, err := NewShardMap(1, []ShardSpec{{Name: "a", Endpoints: []string{"x"}}, {Name: "a", Endpoints: []string{"y"}}}); err == nil {
		t.Fatal("duplicate shard name accepted")
	}
	if _, err := NewShardMap(1, []ShardSpec{{Name: "a"}}); err == nil {
		t.Fatal("endpointless shard accepted")
	}
}
