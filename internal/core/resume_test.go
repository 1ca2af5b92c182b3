package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"toposhot/internal/ethsim"
)

// renderSchedule flattens a ScheduleResult into comparable lines, including
// the virtual-time duration — resumed campaigns must match uninterrupted
// ones to the bit, not just on the edge set.
func renderSchedule(res *ScheduleResult) []string {
	out := []string{fmt.Sprintf("iters=%d calls=%d fails=%d pairs=%d dur=%.9f",
		res.Iterations, res.Calls, res.SetupFails, res.PairsMeasured, res.Duration)}
	for _, e := range res.Detected.Edges() {
		out = append(out, fmt.Sprintf("%d-%d via %v", e[0], e[1], res.DetectedVia[e]))
	}
	return out
}

// TestMeasureNetworkResumeMatchesUninterrupted pins the census-resume
// contract: kill a campaign at a batch boundary (persisting the network
// checkpoint plus CampaignState), restore both, finish — and every verdict,
// count, cost figure, and virtual-time duration equals the uninterrupted
// run's.
func TestMeasureNetworkResumeMatchesUninterrupted(t *testing.T) {
	_, mRef, idsRef := buildRing(t, 10, 77)
	ref, err := mRef.MeasureNetwork(idsRef, 3, 60)
	if err != nil {
		t.Fatalf("uninterrupted campaign: %v", err)
	}

	// Twin build, killed after the third batch.
	netInt, mInt, ids := buildRing(t, 10, 77)
	killed := errors.New("killed for checkpoint")
	var blob []byte
	var saved *CampaignState
	_, err = mInt.MeasureNetworkResume(ids, 3, 60, nil, func(st *CampaignState) error {
		if st.BatchesDone == 3 {
			b, cerr := netInt.Checkpoint()
			if cerr != nil {
				return cerr
			}
			blob, saved = b, st
			return killed
		}
		return nil
	})
	if !errors.Is(err, killed) {
		t.Fatalf("campaign did not stop at checkpoint: %v", err)
	}
	if saved == nil || saved.BatchesDone != 3 {
		t.Fatalf("campaign state not captured: %+v", saved)
	}

	// Restore into a fresh world and finish the campaign.
	restored, err := ethsim.RestoreNetwork(blob)
	if err != nil {
		t.Fatalf("RestoreNetwork: %v", err)
	}
	supers := restored.Supernodes()
	if len(supers) != 1 {
		t.Fatalf("restored %d supernodes, want 1", len(supers))
	}
	m2 := NewMeasurer(restored, supers[0], mInt.Params())
	got, err := m2.MeasureNetworkResume(ids, 3, 60, saved, nil)
	if err != nil {
		t.Fatalf("resumed campaign: %v", err)
	}

	a, b := renderSchedule(ref), renderSchedule(got)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("resumed campaign diverged:\nuninterrupted: %v\nresumed:       %v", a, b)
	}
	if mRef.Ledger.PendingCount() != m2.Ledger.PendingCount() ||
		mRef.Ledger.FutureCount() != m2.Ledger.FutureCount() ||
		mRef.Ledger.WorstCaseWei() != m2.Ledger.WorstCaseWei() {
		t.Fatalf("ledger diverged: %v vs %v", mRef.Ledger, m2.Ledger)
	}
	if mRef.acctSeq != m2.acctSeq {
		t.Fatalf("account counter diverged: %d vs %d", mRef.acctSeq, m2.acctSeq)
	}
}

// TestPlanDeterministic: the batch plan must be a pure function of its
// inputs — identical across calls, with every pair covered exactly once.
func TestPlanDeterministic(t *testing.T) {
	_, _, ids := buildRing(t, 12, 5)
	p1 := planNetworkBatches(ids, 4, 50)
	p2 := planNetworkBatches(ids, 4, 50)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("plan enumeration is not deterministic")
	}
	seen := make(map[[2]int]int)
	for _, b := range p1 {
		for _, e := range b.edges {
			key := [2]int{int(e.Source), int(e.Sink)}
			if key[0] > key[1] {
				key[0], key[1] = key[1], key[0]
			}
			seen[key]++
		}
	}
	want := len(ids) * (len(ids) - 1) / 2
	if len(seen) != want {
		t.Fatalf("plan covers %d pairs, want %d", len(seen), want)
	}
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("pair %v scheduled %d times", key, n)
		}
	}
}
