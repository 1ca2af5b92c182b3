package experiments

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"toposhot/internal/tracker"
)

// smallTracking is the test-sized campaign: a 36-node goerli-shaped net,
// enough ticks to exercise hints, sweeps, and verdict flips.
func smallTracking(seed int64) TrackingConfig {
	cfg := GoerliTracking(seed)
	cfg.Census.Grow = cfg.Census.Grow.WithN(36)
	cfg.Ticks = 6
	cfg.Tracker = tracker.Config{Budget: 48, HalfLife: 4, MinConfidence: 0.25}
	return cfg
}

func TestRunTrackingSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-tick tracking campaign")
	}
	tr, err := RunTracking(smallTracking(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Ticks) != 6 {
		t.Fatalf("ran %d ticks, want 6", len(tr.Ticks))
	}
	if tr.ChurnEvents == 0 {
		t.Fatal("no churn during tracking; the experiment tested nothing")
	}
	if tr.TrackerTxs <= 0 || tr.BaselineTxs <= 0 {
		t.Fatalf("degenerate ledgers: baseline %d txs, tracker %d txs", tr.BaselineTxs, tr.TrackerTxs)
	}
	// The feature's acceptance bars: delta campaigns at least 5x cheaper than
	// re-running the census every tick, for at most 2 percentage points of
	// recall.
	if x := tr.CostReductionX(); x < 5 {
		t.Fatalf("delta campaigns only %.1fx cheaper than census-per-tick (floor 5x)", x)
	}
	if loss := tr.RecallLoss(); loss > 0.02 {
		t.Fatalf("tracking recall loss %.4f exceeds the 0.02 floor (census %.4f, mean %.4f)",
			loss, tr.CensusScore.Recall(), tr.MeanRecall)
	}
	out := FormatTracking(tr)
	for _, want := range []string{"incremental tracking:", "seeding census:", "vs census-per-tick:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatTracking output missing %q:\n%s", want, out)
		}
	}
	// The attribution ledger must reproduce the reported spend exactly: the
	// census phase aggregates to the baseline, the whole ledger to baseline
	// plus tracker spend (RunTracking cross-checks this too; pin it here so a
	// relaxed cross-check cannot slip through).
	if got := tr.CostLedger.Totals().Txs(); got != tr.BaselineTxs+tr.TrackerTxs {
		t.Fatalf("ledger attributes %d txs, reported spend is %d+%d", got, tr.BaselineTxs, tr.TrackerTxs)
	}
	phases := tr.CostLedger.ByPhase()
	if len(phases) == 0 || phases[0].Phase != "census" || phases[0].Txs() != tr.BaselineTxs {
		t.Fatalf("census phase attribution wrong: %+v (baseline %d)", phases, tr.BaselineTxs)
	}
	cost := FormatTrackingCost(tr)
	for _, want := range []string{"cost attribution", "census", "tick-1", "total"} {
		if !strings.Contains(cost, want) {
			t.Fatalf("FormatTrackingCost output missing %q:\n%s", want, cost)
		}
	}
	t.Log("\n" + out + cost)
}

// TestRunTrackingResume checkpoints a tracking run mid-campaign through the
// OnTick hook and verifies the resumed continuation replays tick-for-tick
// identically: same reports, same scores, same probe durations, same final
// tracker state.
func TestRunTrackingResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-tick tracking campaign")
	}
	const splitAt = 3
	cfg := smallTracking(23)
	// finalState keeps the tracker's serialized state at the run's last tick.
	finalState := func(tt *TrackingTick, into *[]byte) error {
		if tt.Tick != cfg.Ticks {
			return nil
		}
		last, err := tt.Checkpoint()
		if err != nil {
			return err
		}
		*into, err = json.Marshal(last.Tracking.Tracker)
		return err
	}
	var ck *Checkpoint
	var wantState, gotState []byte
	cfg.OnTick = func(tt *TrackingTick) error {
		if tt.Tick != splitAt {
			return finalState(tt, &wantState)
		}
		var err error
		ck, err = tt.Checkpoint()
		return err
	}
	base, err := RunTracking(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatal("OnTick never reached the checkpoint tick")
	}
	// The whole resume tail must survive the JSON round trip: it is what the
	// checkpoint file stores.
	enc, err := json.Marshal(ck.Tracking)
	if err != nil {
		t.Fatal(err)
	}
	var decoded TrackingResume
	if err := json.Unmarshal(enc, &decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&decoded, ck.Tracking) {
		t.Fatalf("resume tail changed in the JSON round trip:\n  sent: %+v\n  got:  %+v", ck.Tracking, &decoded)
	}
	ck.Tracking = &decoded

	cfg2 := smallTracking(23)
	cfg2.Resume = ck
	cfg2.OnTick = func(tt *TrackingTick) error { return finalState(tt, &gotState) }
	cont, err := RunTracking(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cont.Ticks) != cfg2.Ticks-splitAt {
		t.Fatalf("continuation ran %d ticks, want %d", len(cont.Ticks), cfg2.Ticks-splitAt)
	}
	for i, got := range cont.Ticks {
		want := base.Ticks[splitAt+i]
		// Cumulative ETH is a float sum regrouped at the resume boundary, so
		// it is equal only to ulp precision; everything else is exact.
		if math.Abs(got.Ether-want.Ether) > 1e-15*math.Abs(want.Ether) {
			t.Fatalf("tick %d ether diverged: %v vs %v", want.Tick, want.Ether, got.Ether)
		}
		got.Ether = want.Ether
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tick %d diverged after resume:\n  orig: %+v\n  cont: %+v", want.Tick, want, got)
		}
	}
	if cont.TrackerTxs != base.TrackerTxs {
		t.Fatalf("cumulative tracker spend diverged: %d vs %d", cont.TrackerTxs, base.TrackerTxs)
	}
	if len(wantState) == 0 {
		t.Fatal("OnTick never reached the last tick")
	}
	if string(wantState) != string(gotState) {
		t.Fatal("final tracker state diverged after resume")
	}
	if !reflect.DeepEqual(base.Belief.Edges(), cont.Belief.Edges()) {
		t.Fatal("final belief edge set diverged after resume")
	}
}
