// Package discv implements a simplified Kademlia-style discovery layer:
// per-node routing tables of *inactive* neighbors, FIND_NODE queries, and a
// crawler that measures the inactive-edge graph the way the W2-class related
// work (Gao et al., Paphitis et al.) does. It exists to contrast inactive-
// edge measurement with TopoShot's active-edge inference: a routing table
// holds ~272 entries while only ~50 are active neighbors, so the W2 method
// cannot recover the real gossip topology.
package discv

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"sort"

	"toposhot/internal/types"
)

// BucketSize is Kademlia's k (16 in Ethereum's discv4).
const BucketSize = 16

// NumBuckets is the number of distance buckets kept (17 in Geth).
const NumBuckets = 17

// kadID hashes a node id onto the 256-bit Kademlia keyspace.
func kadID(id types.NodeID) [32]byte {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], uint32(id))
	return sha256.Sum256(buf[:])
}

// LogDist returns the logarithmic XOR distance between two node ids:
// 256 − common-prefix-length, 0 for identical ids.
func LogDist(a, b types.NodeID) int {
	ha, hb := kadID(a), kadID(b)
	for i := 0; i < 32; i++ {
		x := ha[i] ^ hb[i]
		if x != 0 {
			lz := 0
			for mask := byte(0x80); mask != 0 && x&mask == 0; mask >>= 1 {
				lz++
			}
			return (32-i)*8 - lz
		}
	}
	return 0
}

// Table is one node's routing table of inactive neighbors.
type Table struct {
	Self    types.NodeID
	buckets [NumBuckets][]types.NodeID
	present map[types.NodeID]bool
}

// NewTable returns an empty table for the given node.
func NewTable(self types.NodeID) *Table {
	return &Table{Self: self, present: make(map[types.NodeID]bool)}
}

// bucketIndex maps a log distance onto the table's bucket range: Geth keeps
// buckets for the top NumBuckets distances and folds closer nodes into
// bucket 0.
func (t *Table) bucketIndex(id types.NodeID) int {
	d := LogDist(t.Self, id)
	idx := d - (257 - NumBuckets)
	if idx < 0 {
		idx = 0
	}
	return idx
}

// Add inserts a node unless the bucket is full; it reports admission.
func (t *Table) Add(id types.NodeID) bool {
	if id == t.Self || t.present[id] {
		return false
	}
	b := t.bucketIndex(id)
	if len(t.buckets[b]) >= BucketSize {
		return false
	}
	t.buckets[b] = append(t.buckets[b], id)
	t.present[id] = true
	return true
}

// Entries returns all table entries in ascending id order.
func (t *Table) Entries() []types.NodeID {
	out := make([]types.NodeID, 0, len(t.present))
	for id := range t.present {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Closest returns up to k table entries closest (by XOR distance) to target
// — the FIND_NODE response.
func (t *Table) Closest(target types.NodeID, k int) []types.NodeID {
	all := t.Entries()
	sort.Slice(all, func(i, j int) bool {
		di, dj := LogDist(all[i], target), LogDist(all[j], target)
		if di != dj {
			return di < dj
		}
		return all[i] < all[j]
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// System is a whole network's discovery state.
type System struct {
	tables map[types.NodeID]*Table
	ids    []types.NodeID
}

// NewSystem builds tables for the given nodes and populates them by
// `rounds` of iterative self-lookups seeded from `boot` random contacts —
// a compressed but structurally faithful Kademlia bootstrap.
func NewSystem(ids []types.NodeID, boot, rounds int, seed int64) *System {
	rng := rand.New(rand.NewSource(seed))
	s := &System{tables: make(map[types.NodeID]*Table, len(ids)), ids: append([]types.NodeID(nil), ids...)}
	for _, id := range ids {
		s.tables[id] = NewTable(id)
	}
	// Bootstrap contacts.
	for _, id := range ids {
		for i := 0; i < boot; i++ {
			s.tables[id].Add(ids[rng.Intn(len(ids))])
		}
	}
	// Iterative lookups: ask current contacts for nodes near self, learn
	// their answers (and make ourselves known to them, as PING/PONG does).
	for r := 0; r < rounds; r++ {
		for _, id := range ids {
			tbl := s.tables[id]
			for _, contact := range tbl.Closest(id, 4) {
				for _, learned := range s.FindNode(contact, id) {
					tbl.Add(learned)
				}
				s.tables[contact].Add(id)
			}
			// Random-target lookup diversifies distant buckets.
			target := ids[rng.Intn(len(ids))]
			for _, contact := range tbl.Closest(target, 2) {
				for _, learned := range s.FindNode(contact, target) {
					tbl.Add(learned)
				}
			}
		}
	}
	return s
}

// FindNode returns dest's FIND_NODE response for target: its BucketSize
// closest routing entries. This is the message the W2-class crawlers spray.
func (s *System) FindNode(dest, target types.NodeID) []types.NodeID {
	tbl := s.tables[dest]
	if tbl == nil {
		return nil
	}
	return tbl.Closest(target, BucketSize)
}

// CrawlInactiveEdges reproduces the W2 measurement: repeatedly FIND_NODE
// every node with `lookups` random targets each and union the revealed
// routing entries into an (undirected) inactive-edge list.
func (s *System) CrawlInactiveEdges(lookups int, seed int64) [][2]types.NodeID {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[2]types.NodeID]bool)
	for _, id := range s.ids {
		for l := 0; l < lookups; l++ {
			target := s.ids[rng.Intn(len(s.ids))]
			for _, e := range s.FindNode(id, target) {
				a, b := id, e
				if b < a {
					a, b = b, a
				}
				if a != b {
					seen[[2]types.NodeID{a, b}] = true
				}
			}
		}
	}
	out := make([][2]types.NodeID, 0, len(seen))
	for e := range seen {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
