package core

import (
	"testing"

	"toposhot/internal/types"
)

func TestDebugPrimitiveTrace(t *testing.T) {
	net, m, ids := buildRing(t, 8, 1)
	a, b := ids[0], ids[1]
	y := m.resolveY()
	t.Logf("Y=%d", y)
	acctC := m.freshAccount()
	dest := m.freshAccount()
	txC := types.NewTransaction(acctC, dest, 0, m.params.PriceTxC(y), 0)
	m.super.Inject(a, txC)
	net.RunFor(m.params.X)
	for _, id := range []types.NodeID{a, b} {
		nd := net.Node(id)
		t.Logf("after step1 node %v: has txC=%v poolLen=%d pending=%d", id, nd.Pool().Has(txC.Hash()), nd.Pool().Len(), nd.Pool().PendingCount())
	}
	m.super.InjectRuns(b, m.futureRuns(m.zFor(b), m.params.PriceFuture(y))...)
	txB := types.NewTransaction(acctC, dest, 0, m.params.PriceTxB(y), 0)
	m.super.Inject(b, txB)
	m.v.WaitDrained(-1)
	nb := net.Node(b)
	t.Logf("after step2 B: hasTxC=%v hasTxB=%v len=%d pending=%d future=%d",
		nb.Pool().Has(txC.Hash()), nb.Pool().Has(txB.Hash()), nb.Pool().Len(), nb.Pool().PendingCount(), nb.Pool().FutureCount())
	m.super.InjectRuns(a, m.futureRuns(m.zFor(a), m.params.PriceFuture(y))...)
	txA := types.NewTransaction(acctC, dest, 0, m.params.PriceTxA(y), 0)
	checkFrom := net.Now()
	m.super.Inject(a, txA)
	m.v.WaitDrained(-1)
	na := net.Node(a)
	t.Logf("after step3 A: hasTxC=%v hasTxA=%v len=%d pending=%d future=%d",
		na.Pool().Has(txC.Hash()), na.Pool().Has(txA.Hash()), na.Pool().Len(), na.Pool().PendingCount(), na.Pool().FutureCount())
	net.RunFor(m.params.SettleTime)
	t.Logf("B hasTxA=%v hasTxB=%v", nb.Pool().Has(txA.Hash()), nb.Pool().Has(txB.Hash()))
	t.Logf("verdict=%v sightings=%d", VerdictOf(b, m.v.Sightings(txA.Hash(), checkFrom)), len(m.v.Sightings(txA.Hash(), 0)))
	for _, s := range m.v.Sightings(txA.Hash(), 0) {
		t.Logf("  sighting from=%v at=%.3f pushed=%v", s.Peer, s.At, s.Pushed)
	}
	t.Logf("prices: txC=%d txB=%d txA=%d fut=%d", txC.GasPrice, txB.GasPrice, txA.GasPrice, m.params.PriceFuture(y))
}

func TestDebugMeasurePar(t *testing.T) {
	net, m, ids := buildRing(t, 8, 4)
	var edges []Edge
	for _, a := range ids[:3] {
		for _, b := range ids[4:7] {
			edges = append(edges, Edge{Source: a, Sink: b})
		}
	}
	y := m.resolveY()
	t.Logf("Y=%d", y)
	txC := make([]*types.Transaction, len(edges))
	txA := make([]*types.Transaction, len(edges))
	txB := make([]*types.Transaction, len(edges))
	for i := range edges {
		acct := m.freshAccount()
		dest := m.freshAccount()
		txC[i] = types.NewTransaction(acct, dest, 0, m.params.PriceTxC(y), 0)
		txA[i] = types.NewTransaction(acct, dest, 0, m.params.PriceTxA(y), 0)
		txB[i] = types.NewTransaction(acct, dest, 0, m.params.PriceTxB(y), 0)
	}
	sources, sinks := participantSets(edges)
	entries := m.entryNodes(sources, sinks)
	t.Logf("entries=%v", entries)
	for i, tx := range txC {
		m.super.Inject(entries[i%len(entries)], tx)
	}
	net.RunFor(m.params.X)
	for _, id := range ids {
		nd := net.Node(id)
		n := 0
		for i := range txC {
			if nd.Pool().Has(txC[i].Hash()) {
				n++
			}
		}
		t.Logf("after p1 node %v: txCs=%d/9 len=%d", id, n, nd.Pool().Len())
	}
	for _, b := range sortedIDs(sinks) {
		m.super.InjectRuns(b, m.futureRuns(m.zFor(b), m.params.PriceFuture(y))...)
		stream := make([]*types.Transaction, len(edges))
		for i, e := range edges {
			if e.Sink == b {
				stream[i] = txB[i]
			} else {
				stream[i] = txC[i]
			}
		}
		m.super.Inject(b, stream...)
	}
	m.v.WaitDrained(-1)
	for _, id := range sortedIDs(sinks) {
		nd := net.Node(id)
		nb, nc := 0, 0
		for i := range edges {
			if nd.Pool().Has(txB[i].Hash()) {
				nb++
			}
			if nd.Pool().Has(txC[i].Hash()) {
				nc++
			}
		}
		t.Logf("after sinks node %v: txBs=%d txCs=%d len=%d pend=%d fut=%d", id, nb, nc, nd.Pool().Len(), nd.Pool().PendingCount(), nd.Pool().FutureCount())
	}
	for _, a := range sortedIDs(sources) {
		m.super.InjectRuns(a, m.futureRuns(m.zFor(a), m.params.PriceFuture(y))...)
		var others, own []*types.Transaction
		for i, e := range edges {
			if e.Source == a {
				own = append(own, txA[i])
			} else {
				others = append(others, txC[i])
			}
		}
		m.super.Inject(a, others...)
		m.super.Inject(a, own...)
	}
	m.v.WaitDrained(-1)
	for _, id := range sortedIDs(sources) {
		nd := net.Node(id)
		na, nc := 0, 0
		for i := range edges {
			if nd.Pool().Has(txA[i].Hash()) {
				na++
			}
			if nd.Pool().Has(txC[i].Hash()) {
				nc++
			}
		}
		t.Logf("after sources node %v: txAs=%d txCs=%d len=%d pend=%d fut=%d", id, na, nc, nd.Pool().Len(), nd.Pool().PendingCount(), nd.Pool().FutureCount())
	}
	net.RunFor(m.params.SettleTime)
	for i, e := range edges {
		t.Logf("edge %v->%v: sinkHasTxA=%v detected=%v", e.Source, e.Sink, net.Node(e.Sink).Pool().Has(txA[i].Hash()), VerdictOf(e.Sink, m.v.Sightings(txA[i].Hash(), 0)))
	}
}

func TestDebugSchedule(t *testing.T) {
	net, m, ids := buildRing(t, 8, 5)
	res, err := m.MeasureNetwork(ids, 3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	truth := EdgeSetOf(net.Edges())
	superID := m.Supernode().ID()
	for _, e := range res.Detected.Edges() {
		if e[0] == superID || e[1] == superID {
			continue
		}
		if !truth.Has(e[0], e[1]) {
			t.Logf("FP: %v-%v", e[0], e[1])
		}
	}
	for _, e := range truth.Edges() {
		if e[0] == superID || e[1] == superID {
			continue
		}
		if !res.Detected.Has(e[0], e[1]) {
			t.Logf("FN: %v-%v", e[0], e[1])
		}
	}
	t.Logf("iterations=%d calls=%d setupFails=%d", res.Iterations, res.Calls, res.SetupFails)
}

func TestDebugRound2Call(t *testing.T) {
	net, m, ids := buildRing(t, 8, 5)
	// Round 1 as the schedule would run it.
	var e1 []Edge
	for _, a := range ids[:3] {
		for _, b := range ids[3:] {
			e1 = append(e1, Edge{Source: a, Sink: b})
		}
	}
	if _, err := m.MeasurePar(e1); err != nil {
		t.Fatal(err)
	}
	var e2 []Edge
	for _, a := range ids[3:6] {
		for _, b := range ids[6:] {
			e2 = append(e2, Edge{Source: a, Sink: b})
		}
	}
	if _, err := m.MeasurePar(e2); err != nil {
		t.Fatal(err)
	}
	// Round 2 first iteration with tracing.
	edges := []Edge{{ids[0], ids[1]}, {ids[0], ids[2]}, {ids[3], ids[4]}, {ids[3], ids[5]}, {ids[6], ids[7]}}
	y := m.resolveY()
	t.Logf("Y=%d", y)
	txC := make([]*types.Transaction, len(edges))
	txA := make([]*types.Transaction, len(edges))
	txB := make([]*types.Transaction, len(edges))
	for i := range edges {
		acct := m.freshAccount()
		dest := m.freshAccount()
		txC[i] = types.NewTransaction(acct, dest, 0, m.params.PriceTxC(y), 0)
		txA[i] = types.NewTransaction(acct, dest, 0, m.params.PriceTxA(y), 0)
		txB[i] = types.NewTransaction(acct, dest, 0, m.params.PriceTxB(y), 0)
	}
	sources, sinks := participantSets(edges)
	entries := m.entryNodes(sources, sinks)
	t.Logf("entries=%v sources=%v sinks=%v", entries, sortedIDs(sources), sortedIDs(sinks))
	for i, tx := range txC {
		m.super.Inject(entries[i%len(entries)], tx)
	}
	net.RunFor(m.params.X)
	for _, id := range ids {
		nd := net.Node(id)
		var have []int
		for i := range txC {
			if nd.Pool().Has(txC[i].Hash()) {
				have = append(have, i)
			}
		}
		t.Logf("after p1 %v: txCs=%v len=%d pend=%d", id, have, nd.Pool().Len(), nd.Pool().PendingCount())
	}
	for _, b := range sortedIDs(sinks) {
		m.super.InjectRuns(b, m.futureRuns(m.zFor(b), m.params.PriceFuture(y))...)
		stream := make([]*types.Transaction, len(edges))
		for i, e := range edges {
			if e.Sink == b {
				stream[i] = txB[i]
			} else {
				stream[i] = txC[i]
			}
		}
		m.super.Inject(b, stream...)
	}
	m.v.WaitDrained(-1)
	for _, id := range sortedIDs(sinks) {
		nd := net.Node(id)
		var hasB, hasC []int
		for i := range edges {
			if nd.Pool().Has(txB[i].Hash()) {
				hasB = append(hasB, i)
			}
			if nd.Pool().Has(txC[i].Hash()) {
				hasC = append(hasC, i)
			}
		}
		t.Logf("after sinks %v: txB=%v txC=%v len=%d pend=%d fut=%d", id, hasB, hasC, nd.Pool().Len(), nd.Pool().PendingCount(), nd.Pool().FutureCount())
	}
	for _, a := range sortedIDs(sources) {
		m.super.InjectRuns(a, m.futureRuns(m.zFor(a), m.params.PriceFuture(y))...)
		var others, own []*types.Transaction
		for i, e := range edges {
			if e.Source == a {
				own = append(own, txA[i])
			} else {
				others = append(others, txC[i])
			}
		}
		m.super.Inject(a, others...)
		m.super.Inject(a, own...)
	}
	checkFrom := net.Now()
	m.v.WaitDrained(-1)
	for _, a := range sortedIDs(sources) {
		nd := net.Node(a)
		var hasA []int
		for i := range edges {
			if nd.Pool().Has(txA[i].Hash()) {
				hasA = append(hasA, i)
			}
		}
		t.Logf("after sources %v: txA=%v len=%d", a, hasA, nd.Pool().Len())
	}
	net.RunFor(m.params.SettleTime)
	for i, e := range edges {
		t.Logf("edge %d %v->%v: sinkHasA=%v sinkHasB=%v det=%v", i, e.Source, e.Sink,
			net.Node(e.Sink).Pool().Has(txA[i].Hash()), net.Node(e.Sink).Pool().Has(txB[i].Hash()),
			VerdictOf(e.Sink, m.v.Sightings(txA[i].Hash(), checkFrom)))
	}
}
