// Package toposhot is a from-scratch Go reproduction of "TopoShot:
// Uncovering Ethereum's Network Topology Leveraging Replacement
// Transactions" (Li et al., ACM IMC 2021).
//
// The root package holds only this overview. cmd/experiments regenerates
// every table and figure of the paper's evaluation; the implementation lives
// under internal/:
//
//   - internal/core — the TopoShot measurement method itself;
//   - internal/txpool, internal/ethsim, internal/chain — the simulated
//     Ethereum substrate (Table-3 mempools, gossip, mining);
//   - internal/graph, internal/netgen, internal/discv — graph analytics,
//     topology generators and the discovery layer;
//   - internal/node, internal/wire, internal/rlp — a live TCP Ethereum-lite
//     node TopoShot can measure over real sockets;
//   - internal/experiments — one driver per table/figure, the registry
//     that names them (Figures) and the golden ledger that pins their bytes.
//
// See README.md for the quickstart and DESIGN.md for the system inventory.
package toposhot
