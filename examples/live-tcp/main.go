// Live TCP: run TopoShot against real nodes over real sockets. The example
// starts five Ethereum-lite nodes (internal/node) in a path topology on
// localhost, attaches a live vantage that peers with all of them, and
// measures an adjacent and a non-adjacent pair with core.Measurer's
// four-step primitive — the code that probes the simulator, here over the
// sockets cmd/toposhotd nodes also listen on.
package main

import (
	"fmt"
	"log"

	"toposhot/internal/core"
	"toposhot/internal/node"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

const networkID = 1337

func main() {
	const n = 5
	nodes := make([]*node.Node, n)
	for i := range nodes {
		nd, err := node.Start(node.Config{
			ClientVersion: fmt.Sprintf("geth-lite/example-%d", i),
			NetworkID:     networkID,
			Policy:        txpool.Geth.WithCapacity(256),
			Seed:          int64(i + 1),
		}, "127.0.0.1:0")
		if err != nil {
			log.Fatalf("start node %d: %v", i, err)
		}
		defer nd.Close()
		nodes[i] = nd
	}
	// Path topology: 0 — 1 — 2 — 3 — 4.
	for i := 0; i+1 < n; i++ {
		if err := nodes[i].Dial(nodes[i+1].Addr()); err != nil {
			log.Fatalf("peer %d-%d: %v", i, i+1, err)
		}
	}
	fmt.Println("5 live nodes peered in a path topology:")
	for i, nd := range nodes {
		fmt.Printf("  node %d @ %s\n", i, nd.Addr())
	}

	vantage, err := node.NewVantage(networkID, 42)
	if err != nil {
		log.Fatal(err)
	}
	defer vantage.Close()
	ids := make([]types.NodeID, n)
	for i, nd := range nodes {
		if ids[i], err = vantage.Dial(nd.Addr()); err != nil {
			log.Fatal(err)
		}
	}

	m := core.NewMeasurerAt(vantage, node.DefaultProbeParams(256))
	linked, err := m.MeasureOneLink(ids[1], ids[2])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlink node1–node2 detected: %v (truth: true)\n", linked)

	linked, err = m.MeasureOneLink(ids[0], ids[4])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("link node0–node4 detected: %v (truth: false)\n", linked)
}
