package txpool

import (
	"reflect"
	"testing"

	"toposhot/internal/types"
)

// buildBusyPool drives a small-capacity pool through admissions,
// replacements, futures, evictions, and expiries so its internal heaps have
// non-trivial shape.
func buildBusyPool() *Pool {
	p := New(Geth.WithCapacity(48).WithExpiry(100))
	for i := 0; i < 40; i++ {
		from := types.AddressFromUint64(uint64(100 + i))
		p.SetTime(float64(i))
		p.Offer(types.NewTransaction(from, types.AddressFromUint64(1), 0, types.Gwei+uint64(i*7%13)*1e8, 1))
		if i%3 == 0 { // nonce-gapped future
			p.Offer(types.NewTransaction(from, types.AddressFromUint64(1), 2, types.Gwei+uint64(i%5)*1e8, 1))
		}
		if i%5 == 0 { // replacement with a sufficient bump
			p.Offer(types.NewTransaction(from, types.AddressFromUint64(2), 0, 2*types.Gwei+uint64(i)*1e8, 1))
		}
	}
	return p
}

// driveFurther applies an identical post-snapshot workload and collects
// every observable outcome.
func driveFurther(p *Pool) []string {
	var log []string
	for i := 0; i < 30; i++ {
		from := types.AddressFromUint64(uint64(500 + i%7))
		tx := types.NewTransaction(from, types.AddressFromUint64(3), uint64(i/7), types.Gwei/2+uint64(i)*3e8, 1)
		res := p.Offer(tx)
		log = append(log, res.Status.String())
		for _, ev := range res.Evicted {
			log = append(log, "evict:"+ev.Tx().Hash().String())
		}
		for _, pr := range res.Promoted {
			log = append(log, "promote:"+pr.Hash().String())
		}
		if i%6 == 5 {
			p.SetTime(p.now + 21)
		}
	}
	for _, tx := range p.Content() {
		log = append(log, "content:"+tx.Hash().String())
	}
	for _, tx := range p.Pending() {
		log = append(log, "pending:"+tx.Hash().String())
	}
	return log
}

// TestSnapshotRoundTrip pins the restore contract: a restored pool is
// behaviorally byte-identical to the original under any further workload —
// including eviction order, which depends on exact heap array layout.
func TestSnapshotRoundTrip(t *testing.T) {
	orig := buildBusyPool()
	snap := orig.Snapshot()
	restored, err := RestorePool(orig.Policy(), snap)
	if err != nil {
		t.Fatalf("RestorePool: %v", err)
	}

	if restored.Len() != orig.Len() ||
		restored.PendingCount() != orig.PendingCount() ||
		restored.FutureCount() != orig.FutureCount() {
		t.Fatalf("restored counts (%d,%d,%d) != original (%d,%d,%d)",
			restored.Len(), restored.PendingCount(), restored.FutureCount(),
			orig.Len(), orig.PendingCount(), orig.FutureCount())
	}

	a, b := driveFurther(orig), driveFurther(restored)
	if !reflect.DeepEqual(a, b) {
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				t.Fatalf("divergence at step %d: %q vs %q", i, a[i], b[i])
			}
		}
		t.Fatalf("restored pool diverged (lengths %d vs %d)", len(a), len(b))
	}
}

// TestSnapshotDropsTombstones verifies dead age-queue entries do not leak
// into the snapshot.
func TestSnapshotDropsTombstones(t *testing.T) {
	p := New(Geth.WithCapacity(16))
	var hashes []types.Hash
	for i := 0; i < 8; i++ {
		tx := types.NewTransaction(types.AddressFromUint64(uint64(i+1)), types.AddressFromUint64(1), 0, types.Gwei, 1)
		p.Offer(tx)
		hashes = append(hashes, tx.Hash())
	}
	p.Drop(hashes[0])
	p.Drop(hashes[3])
	snap := p.Snapshot()
	if len(snap.Entries) != 6 {
		t.Fatalf("snapshot holds %d entries, want 6 live", len(snap.Entries))
	}
	restored, err := RestorePool(p.Policy(), snap)
	if err != nil {
		t.Fatalf("RestorePool: %v", err)
	}
	if restored.Has(hashes[0]) || restored.Has(hashes[3]) {
		t.Fatal("dropped transactions resurrected by restore")
	}
	if restored.Len() != 6 {
		t.Fatalf("restored %d entries, want 6", restored.Len())
	}
}
