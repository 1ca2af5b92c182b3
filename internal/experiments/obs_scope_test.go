package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"toposhot/internal/core"
	"toposhot/internal/obs"
	"toposhot/internal/runner"
	"toposhot/internal/trace"
)

// withDebugLog installs a fresh debug-level process logger for the rest of
// the test and restores the previous default afterwards.
func withDebugLog(t *testing.T) *obs.Logger {
	t.Helper()
	prev := obs.Enabled()
	lg := obs.New(obs.Options{Level: obs.LevelDebug})
	obs.Enable(lg)
	t.Cleanup(func() { obs.Enable(prev) })
	return lg
}

// scopeRecords returns the records of the snapshot scope with the given name.
func scopeRecords(log *obs.Log, name string) []trace.Record {
	for _, lane := range log.Lanes {
		if lane.Name == name {
			return lane.Records
		}
	}
	return nil
}

// TestCensusEventsOnItsClock: a census logs its campaign events on a scope
// named like its trace lane, stamped with the census network's virtual time.
func TestCensusEventsOnItsClock(t *testing.T) {
	lg := withDebugLog(t)
	cfg := GoerliCensus(7)
	cfg.Grow = cfg.Grow.WithN(24)
	c, err := RunCensus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := scopeRecords(lg.Snapshot(), "census:"+censusKey(cfg))
	if len(recs) < 3 || recs[0].Name != core.MsgCampaignStarted || recs[len(recs)-1].Name != core.MsgCampaignDone {
		t.Fatalf("census scope holds %d events, want campaign-started … campaign-done", len(recs))
	}
	first, last := recs[0].Start, recs[len(recs)-1].Start
	if first <= 0 || last-first < 0.99*c.DurationHours*3600 {
		t.Fatalf("events at %.2f … %.2f s, want virtual times spanning the %.2f-s campaign", first, last, c.DurationHours*3600)
	}
}

// TestFig5EventLogWidthInvariant: each Fig. 5 row logs on its own
// pre-created scope on its own clock, so the event log is byte-identical at
// any runner width.
func TestFig5EventLogWidthInvariant(t *testing.T) {
	prev := runner.Parallelism()
	defer runner.SetParallelism(prev)
	ks := []int{1, 3, 4}
	logs := make([][]byte, 0, 2)
	for _, width := range []int{1, 4} {
		runner.SetParallelism(width)
		lg := withDebugLog(t)
		fig5(7, 12, ks)
		snap := lg.Snapshot()
		// Row 0 is the serial baseline, which logs no campaign events.
		for i := 1; i < len(ks); i++ {
			recs := scopeRecords(snap, fmt.Sprintf("fig5[%d]", i))
			if len(recs) == 0 || recs[len(recs)-1].Start <= 0 {
				t.Fatalf("width %d: row %d logged %d events, the last at t=0 or none", width, i, len(recs))
			}
		}
		var b bytes.Buffer
		if err := snap.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		logs = append(logs, b.Bytes())
	}
	if !bytes.Equal(logs[0], logs[1]) {
		t.Fatalf("fig5 event log differs between widths 1 and 4:\n%s\nvs\n%s", logs[0], logs[1])
	}
}
