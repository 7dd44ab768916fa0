// Package cluster is the distributed serving plane: a versioned
// consistent-hash shard map over node ids, a WAL-shipping replication
// client that keeps follower daemons in lockstep with their shard
// leader, and the stateless scatter-gather router cmd/ehnad-router
// serves queries through.
//
// The unit of placement is the node id: every id hashes onto a ring of
// virtual points, and the shard owning the next point clockwise owns
// the id. Shards carry an ordered endpoint list (leader first at boot;
// the router re-elects on health evidence), and the map carries a
// version so a rebalanced layout — built offline by exporting each
// shard with /v1/export and re-seeding — can be told apart from the
// one it replaces.
package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"ehna/internal/graph"
)

// vnodes is the number of virtual ring points per shard. 64 keeps the
// worst-case load skew across a handful of shards within a few percent
// while the ring stays small enough to rebuild on every map load.
const vnodes = 64

// ShardSpec names one shard and its daemon endpoints. Endpoints are
// base URLs ("http://host:port"); the first is treated as the leader
// until health evidence says otherwise.
type ShardSpec struct {
	Name      string   `json:"name"`
	Endpoints []string `json:"endpoints"`
}

// ringPoint is one virtual node: a position on the hash ring and the
// shard that owns keys landing at or before it.
type ringPoint struct {
	hash  uint64
	shard int
}

// ShardMap is a versioned consistent-hash placement of node ids onto
// shards. Immutable after construction; rebalancing builds a new map
// with a higher version.
type ShardMap struct {
	Version uint64      `json:"version"`
	Shards  []ShardSpec `json:"shards"`

	ring []ringPoint
}

// NewShardMap builds the ring for the given shards. Shard names must
// be unique and non-empty, and every shard needs at least one endpoint.
func NewShardMap(version uint64, shards []ShardSpec) (*ShardMap, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: shard map needs at least one shard")
	}
	seen := make(map[string]bool, len(shards))
	m := &ShardMap{Version: version, Shards: shards, ring: make([]ringPoint, 0, vnodes*len(shards))}
	for si, s := range shards {
		if s.Name == "" {
			return nil, fmt.Errorf("cluster: shard %d has no name", si)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", s.Name)
		}
		seen[s.Name] = true
		if len(s.Endpoints) == 0 {
			return nil, fmt.Errorf("cluster: shard %q has no endpoints", s.Name)
		}
		for v := 0; v < vnodes; v++ {
			m.ring = append(m.ring, ringPoint{hash: hashString(fmt.Sprintf("%s#%d", s.Name, v)), shard: si})
		}
	}
	sort.Slice(m.ring, func(i, j int) bool {
		if m.ring[i].hash != m.ring[j].hash {
			return m.ring[i].hash < m.ring[j].hash
		}
		// Ties (vanishingly rare with 64-bit hashes) break by shard
		// index so the ring order is deterministic across processes.
		return m.ring[i].shard < m.ring[j].shard
	})
	return m, nil
}

// ParseShardMap builds a ShardMap from its JSON form.
func ParseShardMap(data []byte) (*ShardMap, error) {
	var raw struct {
		Version uint64      `json:"version"`
		Shards  []ShardSpec `json:"shards"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("cluster: parse shard map: %w", err)
	}
	return NewShardMap(raw.Version, raw.Shards)
}

// Owner returns the index (into Shards) of the shard owning id.
func (m *ShardMap) Owner(id graph.NodeID) int {
	h := hashID(id)
	// First ring point with hash > h; wraps to ring[0].
	i := sort.Search(len(m.ring), func(i int) bool { return m.ring[i].hash > h })
	if i == len(m.ring) {
		i = 0
	}
	return m.ring[i].shard
}

// hashID hashes a node id onto the ring: FNV-1a over its 4-byte LE
// encoding, pushed through a 64-bit avalanche finalizer. FNV alone
// leaves nearby inputs correlated in the high bits the ring's sort
// order lives on; the finalizer spreads them. Both stages are fixed
// arithmetic — placement must be stable across architectures and
// releases.
func hashID(id graph.NodeID) uint64 {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(id))
	h := fnv.New64a()
	h.Write(b[:])
	return mix64(h.Sum64())
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the MurmurHash3 64-bit finalizer: a full-avalanche bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
