package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"toposhot/internal/core"
	"toposhot/internal/tracker"
	"toposhot/internal/types"
)

// testBack is a NodeID→vertex map large enough that two map walks almost
// surely differ in order.
func testBack() map[types.NodeID]int {
	back := make(map[types.NodeID]int)
	for i := 1; i <= 64; i++ {
		back[types.NodeID(i)] = i - 1
	}
	return back
}

func campaignCheckpoint() *campaignMeta {
	return &campaignMeta{
		Seed: 7, K: 8, EdgeBudget: 144, Super: 1,
		Targets: []types.NodeID{1, 2, 3}, Back: sortedBack(testBack()),
		Campaign: &core.CampaignState{
			BatchesDone: 5, StartTime: 12.5, AcctSeq: 99, Calls: 5, PairsMeasured: 40,
			Detected:   []core.DetectedEdge{{A: 1, B: 2, Via: types.Hash{0xab}}},
			ZOverrides: []core.ZOverrideEntry{{Node: 3, Z: 1024}},
		},
	}
}

func trackingCheckpoint() *campaignMeta {
	return &campaignMeta{
		Seed: 7, K: 8, EdgeBudget: 144,
		Targets: []types.NodeID{1, 2, 3}, Back: sortedBack(testBack()),
		Tracking: &trackingMeta{
			State: &tracker.State{
				Tick: 3, Targets: []types.NodeID{1, 2, 3},
				Pairs:  []tracker.PairState{{A: 1, B: 2, Present: true, LastTick: 3}, {A: 1, B: 3, LastTick: 2}},
				Urgent: [][2]types.NodeID{{2, 3}},
			},
			TicksDone: 3, EventIndex: 4,
			BaselineTxs: 1000, BaselineEther: 0.5, BaselineDuration: 3600,
			CensusScore: core.Score{TruePositives: 9, FalseNegatives: 1},
			TrackerTxs:  70, TrackerEther: 0.01, TrackerDuration: 360,
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	blob := []byte("engine-state\x00\xff not json {")
	for name, meta := range map[string]*campaignMeta{
		"campaign": campaignCheckpoint(), "tracking": trackingCheckpoint(),
	} {
		path := filepath.Join(t.TempDir(), name+".ckpt")
		if err := writeCheckpoint(path, blob, meta); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		gotBlob, gotMeta, err := readCheckpoint(path)
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if !bytes.Equal(gotBlob, blob) {
			t.Errorf("%s: blob = %q, want %q", name, gotBlob, blob)
		}
		if !reflect.DeepEqual(gotMeta, meta) {
			t.Errorf("%s: meta = %+v, want %+v", name, gotMeta, meta)
		}
		if !reflect.DeepEqual(gotMeta.backMap(), testBack()) {
			t.Errorf("%s: backMap lost entries", name)
		}
	}
}

// TestCheckpointBytesDeterministic: the same campaign state must serialize
// to the same file. Back used to be filled by ranging over the map, so two
// same-seed runs wrote files that differed only in its order.
func TestCheckpointBytesDeterministic(t *testing.T) {
	dir := t.TempDir()
	var files [2][]byte
	for i := range files {
		path := filepath.Join(dir, "c.ckpt")
		if err := writeCheckpoint(path, []byte("blob"), campaignCheckpoint()); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = data
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("the same state written twice gave different bytes")
	}
	pairs := sortedBack(testBack())
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1].ID >= pairs[i].ID {
			t.Fatalf("Back not in ascending NodeID order at %d: %v then %v", i, pairs[i-1].ID, pairs[i].ID)
		}
	}
}

// TestReadCheckpointRejectsDamage: every malformed file is an error, never a
// panic and never a silently resumed campaign.
func TestReadCheckpointRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.ckpt")
	small := &campaignMeta{Seed: 1, K: 2, Campaign: &core.CampaignState{BatchesDone: 1}}
	if err := writeCheckpoint(good, []byte("blob"), small); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.ckpt")
	mustFail := func(what string, contents []byte) {
		t.Helper()
		if err := os.WriteFile(bad, contents, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := readCheckpoint(bad); err == nil {
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

	noState := filepath.Join(dir, "nostate.ckpt")
	if err := writeCheckpoint(noState, []byte("blob"), &campaignMeta{Seed: 1, K: 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readCheckpoint(noState); err == nil {
		t.Error("tail with neither Campaign nor Tracking accepted")
	}
	if _, _, err := readCheckpoint(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Error("missing file accepted")
	}
}
