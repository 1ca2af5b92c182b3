package core

import (
	"slices"
	"strings"

	"toposhot/internal/ethsim"
	"toposhot/internal/gossip"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// PreprocessReport records the pre-processing phase of §5.2.3/§6.2.1: the
// nodes excluded from measurement, with reasons.
type PreprocessReport struct {
	// Excluded maps a node to the reason it was removed from the target set.
	Excluded map[types.NodeID]string
}

// Eligible reports whether a node survived pre-processing.
func (r *PreprocessReport) Eligible(id types.NodeID) bool {
	_, excluded := r.Excluded[id]
	return !excluded
}

// EligibleNodes filters a node list against the report.
func (r *PreprocessReport) EligibleNodes(ids []types.NodeID) []types.NodeID {
	out := ids[:0:0]
	for _, id := range ids {
		if r.Eligible(id) {
			out = append(out, id)
		}
	}
	return out
}

// Preprocess vets each target node before measurement:
//
//   - unresponsive nodes (no RPC answer) are excluded;
//   - nodes running clients with a zero replacement bump (Nethermind,
//     Aleth — Table 3) are excluded as unmeasurable;
//   - nodes that forward future transactions are detected by sending each
//     a future transaction and watching (through the supernode, which peers
//     with the whole network, playing §6.2.1's "monitor node") whether it
//     comes back; forwarders are excluded.
func (m *Measurer) Preprocess(nodes []types.NodeID) *PreprocessReport {
	rep := &PreprocessReport{Excluded: make(map[types.NodeID]string)}
	m.v.Retire()
	y := m.resolveY()

	// The future-forwarding probe needs a second observation point: a node
	// never forwards a message back to its sender, so the §6.2.1 "monitor
	// node" must be distinct from the measurement node injecting the probe.
	monitor := ethsim.NewSupernode(m.net)
	for _, id := range nodes {
		_ = monitor.Connect(id)
	}

	probes := make(map[types.NodeID]types.Hash, len(nodes))
	checkFrom := m.net.Now()
	for _, id := range nodes {
		nd := m.net.Node(id)
		if nd == nil {
			rep.Excluded[id] = "unknown"
			continue
		}
		version, err := nd.RPC().ClientVersion()
		if err != nil {
			rep.Excluded[id] = "unresponsive"
			continue
		}
		if pol, ok := clientFromVersion(version); ok && !pol.Measurable() {
			rep.Excluded[id] = "unmeasurable-client (" + pol.Name + ")"
			continue
		}
		// Future-forwarding probe: nonce 7 on a fresh account can never
		// become executable, so a spec-conforming node buffers it silently.
		acct := m.freshAccount()
		probe := types.NewTransaction(acct, m.freshAccount(), 7, m.params.PriceFuture(y), 0)
		probes[id] = probe.Hash()
		m.v.Inject(id, probe)
	}
	m.v.WaitDrained(-1)
	m.net.RunFor(3)
	pushed := func(s gossip.Sighting) bool { return s.Pushed }
	for id, h := range probes {
		fromID := func(s gossip.Sighting) bool { return s.Pushed && s.Peer == id }
		if slices.ContainsFunc(monitor.Sightings(h, checkFrom), fromID) ||
			slices.ContainsFunc(m.v.Sightings(h, checkFrom), pushed) {
			rep.Excluded[id] = "forwards-futures"
		}
	}
	// Retire the monitor's links; its node remains as a silent observer.
	for _, id := range nodes {
		m.net.Disconnect(monitor.ID(), id)
	}
	return rep
}

// clientFromVersion matches a web3_clientVersion string to a Table-3 preset.
func clientFromVersion(version string) (txpool.Policy, bool) {
	v := strings.ToLower(version)
	for _, p := range txpool.AllClients {
		if strings.Contains(v, strings.ToLower(p.Name)) {
			return p, true
		}
	}
	// OpenEthereum is Parity's successor name.
	if strings.Contains(v, "openethereum") {
		return txpool.Parity, true
	}
	return txpool.Policy{}, false
}
