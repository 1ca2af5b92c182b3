package main

import (
	"fmt"
	"io"

	"toposhot/internal/experiments"
	"toposhot/internal/obs"
	"toposhot/internal/tracker"
)

// trackingFlags bundles the CLI state the -track mode consumes.
type trackingFlags struct {
	census experiments.CensusConfig
	lanes  int

	ticks  int
	budget int
	churn  float64

	checkpoint      string
	checkpointEvery int
	resumeFrom      string

	out            string
	stdout, stderr io.Writer

	cli    *obs.CLI
	ledger *obs.Ledger
}

// runTracking drives experiments.RunTracking from the CLI: seeding census,
// churn, per-tick delta campaigns, optional per-tick resumable checkpoints,
// and the final belief edge list on -out. It returns the exit code.
func runTracking(f trackingFlags) int {
	cfg := experiments.TrackingConfig{
		Census:          f.census,
		Ticks:           f.ticks,
		TickSeconds:     120,
		Tracker:         tracker.Config{Budget: f.budget, HalfLife: 6, MinConfidence: 0.25},
		ChurnInterval:   f.churn,
		ChurnRemoveFrac: 0.5,
		HintEvery:       2,
		Lanes:           f.lanes,
		Ledger:          f.ledger,
	}

	if f.resumeFrom != "" {
		blob, meta, err := readCheckpoint(f.resumeFrom)
		if err != nil {
			return f.cli.Fatal(1, "checkpoint-read-failed", obs.Err(err))
		}
		if meta.Tracking == nil {
			return f.cli.Fatal(2, "bad-flags", obs.String("file", f.resumeFrom),
				obs.String("why", "a census-campaign checkpoint; resume it without -track"))
		}
		cfg.Resume = &experiments.TrackingResume{
			Blob:             blob,
			Tracker:          meta.Tracking.State,
			TicksDone:        meta.Tracking.TicksDone,
			Super:            meta.Super,
			EventIndex:       meta.Tracking.EventIndex,
			Back:             meta.backMap(),
			BaselineTxs:      meta.Tracking.BaselineTxs,
			BaselineEther:    meta.Tracking.BaselineEther,
			BaselineDuration: meta.Tracking.BaselineDuration,
			CensusScore:      meta.Tracking.CensusScore,
			TrackerTxs:       meta.Tracking.TrackerTxs,
			TrackerEther:     meta.Tracking.TrackerEther,
			TrackerDuration:  meta.Tracking.TrackerDuration,
		}
		f.cli.Logger.Info("tracking-resumed", obs.String("file", f.resumeFrom),
			obs.Int("ticks_done", int64(meta.Tracking.TicksDone)), obs.Int("ticks", int64(f.ticks)),
			obs.Int("tracked_pairs", int64(len(meta.Tracking.State.Pairs))),
			obs.Int("probe_txs", int64(meta.Tracking.TrackerTxs)))
	}

	if f.checkpoint != "" {
		every := f.checkpointEvery
		if every < 1 {
			every = 1
		}
		cfg.OnTick = func(tt *experiments.TrackingTick) error {
			if tt.Tick%every != 0 && tt.Tick != f.ticks {
				return nil
			}
			blob, err := tt.Net.Checkpoint()
			if err != nil {
				return err
			}
			meta := &campaignMeta{
				Seed: f.census.Seed, K: f.census.GroupK, EdgeBudget: f.census.EdgeBudget, Super: tt.Super,
				Targets: tt.Tracker.Targets(), Back: sortedBack(tt.Back),
				Tracking: &trackingMeta{
					State:            tt.Tracker.State(),
					TicksDone:        tt.Tick,
					EventIndex:       tt.EventIndex,
					BaselineTxs:      tt.Run.BaselineTxs,
					BaselineEther:    tt.Run.BaselineEther,
					BaselineDuration: tt.Run.BaselineDuration,
					CensusScore:      tt.Run.CensusScore,
					TrackerTxs:       tt.Txs,
					TrackerEther:     tt.Ether,
					TrackerDuration:  tt.TotalDuration,
				},
			}
			return writeCheckpoint(f.checkpoint, blob, meta)
		}
	}

	tr, err := experiments.RunTracking(cfg)
	if err != nil {
		return f.cli.Fatal(1, "tracking-failed", obs.Err(err))
	}
	fmt.Fprint(f.stderr, experiments.FormatTracking(tr))
	fmt.Fprint(f.stderr, experiments.FormatTrackingCost(tr))
	return writeResult(f.cli, f.out, f.stdout, vertexEdges(tr.Belief, tr.Back))
}
