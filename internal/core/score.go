package core

import (
	"fmt"
	"sort"

	"toposhot/internal/types"
)

// EdgeSet is a set of undirected node pairs, stored smaller-id-first.
type EdgeSet struct {
	set map[[2]types.NodeID]struct{}
}

// NewEdgeSet returns an empty edge set.
func NewEdgeSet() *EdgeSet {
	return &EdgeSet{set: make(map[[2]types.NodeID]struct{})}
}

// EdgeSetOf builds an edge set from a slice of pairs.
func EdgeSetOf(edges [][2]types.NodeID) *EdgeSet {
	s := NewEdgeSet()
	for _, e := range edges {
		s.Add(e[0], e[1])
	}
	return s
}

func norm(a, b types.NodeID) [2]types.NodeID {
	if b < a {
		a, b = b, a
	}
	return [2]types.NodeID{a, b}
}

// Add inserts the undirected edge {a,b}.
func (s *EdgeSet) Add(a, b types.NodeID) {
	if a == b {
		return
	}
	s.set[norm(a, b)] = struct{}{}
}

// Has reports membership of {a,b}.
func (s *EdgeSet) Has(a, b types.NodeID) bool {
	_, ok := s.set[norm(a, b)]
	return ok
}

// Len returns the edge count.
func (s *EdgeSet) Len() int { return len(s.set) }

// Edges returns the edges sorted.
func (s *EdgeSet) Edges() [][2]types.NodeID {
	out := make([][2]types.NodeID, 0, len(s.set))
	for e := range s.set {
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

// Union merges other into s and returns s.
func (s *EdgeSet) Union(other *EdgeSet) *EdgeSet {
	for e := range other.set {
		s.set[e] = struct{}{}
	}
	return s
}

// Score compares a measured edge set against ground truth over a measured
// universe of node pairs.
type Score struct {
	TruePositives  int
	FalsePositives int
	FalseNegatives int
}

// Precision returns TP/(TP+FP); 1 when nothing was reported.
func (s Score) Precision() float64 {
	if s.TruePositives+s.FalsePositives == 0 {
		return 1
	}
	return float64(s.TruePositives) / float64(s.TruePositives+s.FalsePositives)
}

// Recall returns TP/(TP+FN); 1 when there was nothing to find.
func (s Score) Recall() float64 {
	if s.TruePositives+s.FalseNegatives == 0 {
		return 1
	}
	return float64(s.TruePositives) / float64(s.TruePositives+s.FalseNegatives)
}

// String renders the score.
func (s Score) String() string {
	return fmt.Sprintf("TP=%d FP=%d FN=%d precision=%.3f recall=%.3f",
		s.TruePositives, s.FalsePositives, s.FalseNegatives, s.Precision(), s.Recall())
}

// ScoreAgainst scores `measured` against ground `truth`, counting only edges
// whose both endpoints pass the filter (pre-processing excludes some nodes;
// those edges are out of scope, as in the paper's validation). A nil filter
// admits everything.
func ScoreAgainst(measured, truth *EdgeSet, filter func(types.NodeID) bool) Score {
	in := func(e [2]types.NodeID) bool {
		return filter == nil || (filter(e[0]) && filter(e[1]))
	}
	var sc Score
	for e := range measured.set {
		if !in(e) {
			continue
		}
		if truth.Has(e[0], e[1]) {
			sc.TruePositives++
		} else {
			sc.FalsePositives++
		}
	}
	for e := range truth.set {
		if !in(e) {
			continue
		}
		if !measured.Has(e[0], e[1]) {
			sc.FalseNegatives++
		}
	}
	return sc
}
