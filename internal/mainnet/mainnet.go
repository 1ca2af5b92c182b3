// Package mainnet lays out and measures the §6.3 scenario: an Ethereum
// mainnet-like network whose critical services — mining pools and
// transaction relays — run biased neighbor selection, and the measurement
// campaign that discovers their backend nodes (via web3_clientVersion
// matching, after Li et al. 2021) and maps their interconnections with the
// non-interference-verified TopoShot extension (Table 6).
package mainnet

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"toposhot/internal/core"
	"toposhot/internal/ethsim"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// Service names follow the paper's anonymized scheme: SrvR* are transaction
// relays, SrvM* mining pools.
const (
	SrvR1 = "SrvR1"
	SrvR2 = "SrvR2"
	SrvM1 = "SrvM1"
	SrvM2 = "SrvM2"
	SrvM3 = "SrvM3"
	SrvM4 = "SrvM4"
	SrvM5 = "SrvM5"
	SrvM6 = "SrvM6"
)

// ServiceCounts is the paper's discovered backend population (§6.3 step 1):
// 48 SrvR1 + 1 SrvR2 relay nodes; 59/8/6/2/2/1 pool nodes.
var ServiceCounts = map[string]int{
	SrvR1: 48, SrvR2: 1,
	SrvM1: 59, SrvM2: 8, SrvM3: 6, SrvM4: 2, SrvM5: 2, SrvM6: 1,
}

// Scenario is a built mainnet-like network with labelled services.
type Scenario struct {
	Net *ethsim.Network
	// Members maps service name → backend node ids.
	Members map[string][]types.NodeID
	// Regular lists the unaffiliated nodes.
	Regular []types.NodeID
}

// Config sizes the scenario.
type Config struct {
	// RegularNodes is the unaffiliated population (the real mainnet has
	// ~8000; the default scenario scales to a simulable size while keeping
	// the critical population at the paper's exact counts).
	RegularNodes int
	// Seed drives topology sampling.
	Seed int64
}

// DefaultConfig returns a 400-regular-node scenario.
func DefaultConfig(seed int64) Config {
	return Config{RegularNodes: 400, Seed: seed}
}

// Topology lays the scenario out: every node's configuration (the critical
// services' backends in service-name order, then the regular population)
// and the links between them, by index into the nodes, in the order they
// are to be connected.
//
//   - critical services (all but SrvR2) run supernode-style biased neighbor
//     selection: every node of such a service connects to every node of the
//     services it prioritizes — relays to pools and to their own kind,
//     pools to all pools (same and different) and to SrvR1;
//   - the sole modelled deviation inside the critical set mirrors the
//     paper's observation: SrvM1 backends do not peer with each other;
//   - SrvR2 runs a vanilla client: random neighbors only, no priority —
//     the paper's explanation (b) for its isolation in Table 6;
//   - every node additionally keeps random links into the regular
//     population, which itself forms an Ethereum-style random overlay.
//
// Every pool ages unconfirmed transactions out after 150 s, so the busy
// mainnet pools stay in steady state at a simulable pool scale.
func Topology(cfg Config) ([]ethsim.NodeConfig, [][2]int) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	pol := txpool.Geth.WithExpiry(150)

	services := make([]string, 0, len(ServiceCounts))
	for s := range ServiceCounts {
		services = append(services, s)
	}
	sort.Strings(services)
	var nodes []ethsim.NodeConfig
	members := make(map[string][]int, len(services))
	for _, s := range services {
		for i := 0; i < ServiceCounts[s]; i++ {
			members[s] = append(members[s], len(nodes))
			nodes = append(nodes, ethsim.NodeConfig{
				Policy:     pol,
				MaxPeers:   1 << 16,
				Label:      s,
				VersionTag: fmt.Sprintf("%s-backend-%02d", s, i),
			})
		}
	}
	regular := make([]int, cfg.RegularNodes)
	for i := range regular {
		regular[i] = len(nodes)
		nodes = append(nodes, ethsim.NodeConfig{Policy: pol, MaxPeers: 50})
	}

	// Critical-to-critical links under the biased selection policy.
	prioritized := func(a, b string) bool {
		if a == SrvR2 || b == SrvR2 {
			return false // vanilla client: no bias
		}
		if a == SrvM1 && b == SrvM1 {
			return false // the paper's observed exception
		}
		relay := func(s string) bool { return strings.HasPrefix(s, "SrvR") }
		switch {
		case relay(a) && relay(b):
			return a == b // SrvR1 peers with other SrvR1, not other relays
		default:
			return true // pool–pool and pool–relay are prioritized
		}
	}
	var links [][2]int
	for i, sa := range services {
		for _, sb := range services[i:] {
			if !prioritized(sa, sb) {
				continue
			}
			for _, na := range members[sa] {
				for _, nb := range members[sb] {
					if na != nb {
						links = append(links, [2]int{na, nb})
					}
				}
			}
		}
	}

	// Random overlay among regulars and from criticals into regulars.
	randomLinks := func(v, k int) {
		for j := 0; j < k; j++ {
			other := regular[rng.Intn(len(regular))]
			if other != v {
				links = append(links, [2]int{v, other})
			}
		}
	}
	for _, v := range regular {
		randomLinks(v, 6+rng.Intn(10))
	}
	for _, s := range services {
		for _, v := range members[s] {
			randomLinks(v, 8+rng.Intn(8))
		}
	}
	return nodes, links
}

// NewScenario reads the services back from a network built from Topology:
// a node's label names its service, and unlabelled nodes are the regular
// population.
func NewScenario(net *ethsim.Network) *Scenario {
	sc := &Scenario{Net: net, Members: make(map[string][]types.NodeID)}
	for _, nd := range net.Nodes() {
		switch label := nd.Config().Label; {
		case label == "":
			sc.Regular = append(sc.Regular, nd.ID())
		case ServiceCounts[label] > 0:
			sc.Members[label] = append(sc.Members[label], nd.ID())
		}
	}
	return sc
}

// Discovery maps a service to the node ids found for it.
type Discovery map[string][]types.NodeID

// DiscoverCriticalNodes performs §6.3 step 1: query each service frontend
// for its backend client versions (modelled as the per-service version-tag
// list), then match those against the versions observed in handshakes on
// the supernode (every node's RPC version here). It returns the matched
// backend ids per service.
func (sc *Scenario) DiscoverCriticalNodes() Discovery {
	// Handshake corpus: version string → node id.
	corpus := make(map[string]types.NodeID)
	for _, nd := range sc.Net.Nodes() {
		v, err := nd.RPC().ClientVersion()
		if err != nil {
			continue
		}
		corpus[v] = nd.ID()
	}
	found := make(Discovery)
	for s := range ServiceCounts {
		for _, want := range sc.FrontendVersions(s) {
			if id, ok := corpus[want]; ok {
				found[s] = append(found[s], id)
			}
		}
		sort.Slice(found[s], func(i, j int) bool { return found[s][i] < found[s][j] })
	}
	return found
}

// FrontendVersions models submitting web3_clientVersion through a service's
// public frontend repeatedly: it returns the version strings of the
// service's backend nodes.
func (sc *Scenario) FrontendVersions(service string) []string {
	var out []string
	for _, id := range sc.Members[service] {
		v, err := sc.Net.Node(id).RPC().ClientVersion()
		if err == nil {
			out = append(out, v)
		}
	}
	return out
}

// PairReport is one Table-6 cell: a service pair and whether a connection
// between their sampled backends was measured.
type PairReport struct {
	A, B      string
	Connected bool
}

// MeasureCriticalPairs reproduces §6.3 step 2 / Table 6: sample up to
// `perService` random backends per service (the paper uses 2 for SrvR1,
// SrvM1, SrvM2 and 1 elsewhere — pass 2), measure all cross combinations
// per service pair with TopoShot, and report connectivity per pair type.
// It also measures the intra-service pairs (SrvR1–SrvR1, SrvM1–SrvM1...).
func (sc *Scenario) MeasureCriticalPairs(m *core.Measurer, servicePairs [][2]string, perService int, seed int64) ([]PairReport, error) {
	rng := rand.New(rand.NewSource(seed))
	sample := make(map[string][]types.NodeID)
	pick := func(s string) []types.NodeID {
		if got, ok := sample[s]; ok {
			return got
		}
		members := append([]types.NodeID(nil), sc.Members[s]...)
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		if len(members) > perService {
			members = members[:perService]
		}
		sample[s] = members
		return members
	}
	var out []PairReport
	for _, sp := range servicePairs {
		as, bs := pick(sp[0]), pick(sp[1])
		connected := false
		for _, a := range as {
			for _, b := range bs {
				if a == b {
					continue
				}
				ok, err := m.MeasureOneLink(a, b)
				if err != nil {
					return nil, err
				}
				if ok {
					connected = true
				}
			}
		}
		out = append(out, PairReport{A: sp[0], B: sp[1], Connected: connected})
	}
	return out, nil
}

// Table6Pairs is the paper's measured pair list.
var Table6Pairs = [][2]string{
	{SrvR1, SrvM1}, {SrvR1, SrvM2}, {SrvR1, SrvM3}, {SrvR1, SrvM4},
	{SrvR2, SrvM1}, {SrvR2, SrvM2}, {SrvR2, SrvM3}, {SrvR2, SrvM4},
	{SrvR2, SrvR1}, {SrvR1, SrvR1},
	{SrvM1, SrvM1}, {SrvM1, SrvM2}, {SrvM1, SrvM3}, {SrvM1, SrvM4},
	{SrvM2, SrvM2}, {SrvM2, SrvM3}, {SrvM2, SrvM4}, {SrvM3, SrvM4},
}
