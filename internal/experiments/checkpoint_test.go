package experiments

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"toposhot/internal/core"
	"toposhot/internal/netgen"
	"toposhot/internal/tracker"
	"toposhot/internal/types"
)

// testBack is a NodeID→vertex list in ascending NodeID order, as
// CensusWorld.Checkpoint writes it.
func testBack() []backPair {
	var back []backPair
	for i := 1; i <= 64; i++ {
		back = append(back, backPair{ID: types.NodeID(i), V: i - 1})
	}
	return back
}

func campaignCheckpoint() *Checkpoint {
	return &Checkpoint{
		Blob: []byte("engine-state\x00\xff not json {"),
		Seed: 7, K: 8, EdgeBudget: 144, Super: 1,
		Targets: []types.NodeID{1, 2, 3}, Back: testBack(),
		Campaign: &core.CampaignState{
			BatchesDone: 5, StartTime: 12.5, AcctSeq: 99, Calls: 5, PairsMeasured: 40,
			Detected: []core.DetectedEdge{{A: 1, B: 2, Via: types.Hash{0xab}}},
		},
	}
}

func trackingCheckpoint() *Checkpoint {
	return &Checkpoint{
		Blob: []byte("engine-state\x00\xff not json {"),
		Seed: 7, K: 8, EdgeBudget: 144,
		Targets: []types.NodeID{1, 2, 3}, Back: testBack(),
		Tracking: &TrackingResume{
			Tracker: &tracker.State{
				Tick: 3, Targets: []types.NodeID{1, 2, 3},
				Pairs:  []tracker.PairState{{A: 1, B: 2, Present: true, LastTick: 3}, {A: 1, B: 3, LastTick: 2}},
				Urgent: [][2]types.NodeID{{2, 3}},
			},
			TicksDone: 3, EventIndex: 4,
			TrackingTotals: TrackingTotals{
				BaselineTxs: 1000, BaselineEther: 0.5, BaselineDuration: 3600,
				CensusScore: core.Score{TruePositives: 9, FalseNegatives: 1},
				TrackerTxs:  70, TrackerEther: 0.01, TrackerDuration: 360,
			},
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	for name, ck := range map[string]*Checkpoint{
		"campaign": campaignCheckpoint(), "tracking": trackingCheckpoint(),
	} {
		path := filepath.Join(t.TempDir(), name+".ckpt")
		if err := ck.Write(path); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		got, err := ReadCheckpoint(path)
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if !reflect.DeepEqual(got, ck) {
			t.Errorf("%s: read back %+v, wrote %+v", name, got, ck)
		}
	}
}

// TestCheckpointBytesDeterministic: the same campaign state must serialize
// to the same file. Back used to be filled by ranging over the map, so two
// same-seed runs wrote files that differed only in its order.
func TestCheckpointBytesDeterministic(t *testing.T) {
	cfg := GoerliCensus(3)
	cfg.Grow = cfg.Grow.WithN(16)
	w := cfg.World(netgen.Grow(cfg.Grow)).Build()
	w.StartTraffic()
	path := filepath.Join(t.TempDir(), "c.ckpt")
	var files [2][]byte
	for i := range files {
		ck, err := w.Checkpoint(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < len(ck.Back); j++ {
			if ck.Back[j-1].ID >= ck.Back[j].ID {
				t.Fatalf("Back not in ascending NodeID order at %d: %v then %v", j, ck.Back[j-1].ID, ck.Back[j].ID)
			}
		}
		ck.Campaign = &core.CampaignState{}
		if err := ck.Write(path); err != nil {
			t.Fatal(err)
		}
		if files[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("the same state written twice gave different bytes")
	}
}

// TestReadCheckpointRejectsDamage: every malformed file is an error, never a
// panic and never a silently resumed campaign.
func TestReadCheckpointRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ck *Checkpoint) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := ck.Write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	data, err := os.ReadFile(write("good.ckpt", &Checkpoint{Blob: []byte("blob"), Seed: 1, K: 2, Campaign: &core.CampaignState{BatchesDone: 1}}))
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.ckpt")
	mustFail := func(what string, contents []byte) {
		t.Helper()
		if err := os.WriteFile(bad, contents, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpoint(bad); err == nil {
			t.Errorf("%s: accepted", what)
		}
	}

	wrongMagic := append([]byte(nil), data...)
	wrongMagic[0] ^= 0xff
	mustFail("bad magic", wrongMagic)

	longBlob := append([]byte(nil), data...)
	binary.BigEndian.PutUint64(longBlob[len(checkpointMagic):], uint64(len(data)))
	mustFail("blob length past end of file", longBlob)
	binary.BigEndian.PutUint64(longBlob[len(checkpointMagic):], ^uint64(0))
	mustFail("blob length 2^64-1", longBlob)

	for cut := 0; cut < len(data); cut++ {
		mustFail("file cut short", data[:cut])
	}

	for what, ck := range map[string]*Checkpoint{
		"tail with neither Campaign nor Tracking": {Blob: []byte("blob"), Seed: 1, K: 2},
		"tracking tail without tracker state":     {Blob: []byte("blob"), Tracking: &TrackingResume{TicksDone: 1}},
	} {
		if _, err := ReadCheckpoint(write("partial.ckpt", ck)); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
	if _, err := ReadCheckpoint(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestRestoreRejectsNonBijectiveBack: a Back list that maps two nodes to one
// vertex, or one node to two vertices, is an error on restore; it used to
// restore a world whose vertex list held a NodeID of 0, which is no node.
func TestRestoreRejectsNonBijectiveBack(t *testing.T) {
	cfg := GoerliCensus(3)
	cfg.Grow = cfg.Grow.WithN(8)
	w := cfg.World(netgen.Grow(cfg.Grow)).Build()
	w.StartTraffic()
	path := filepath.Join(t.TempDir(), "c.ckpt")
	restore := func(corrupt func([]backPair)) error {
		t.Helper()
		ck, err := w.Checkpoint(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ck.Campaign = &core.CampaignState{}
		corrupt(ck.Back)
		if err := ck.Write(path); err != nil {
			t.Fatal(err)
		}
		if ck, err = ReadCheckpoint(path); err != nil {
			t.Fatal(err)
		}
		_, err = RestoreCensusWorld(ck)
		return err
	}
	if err := restore(func([]backPair) {}); err != nil {
		t.Fatalf("intact checkpoint: %v", err)
	}
	for what, corrupt := range map[string]func([]backPair){
		"repeated vertex":     func(b []backPair) { b[1].V = b[0].V },
		"repeated node":       func(b []backPair) { b[1].ID = b[0].ID },
		"node 0 (not a node)": func(b []backPair) { b[0].ID = 0 },
	} {
		if err := restore(corrupt); err == nil {
			t.Errorf("%s: restored", what)
		}
	}
}
