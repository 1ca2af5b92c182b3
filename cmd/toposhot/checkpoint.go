package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"toposhot/internal/core"
	"toposhot/internal/tracker"
	"toposhot/internal/types"
)

// checkpointMagic heads a campaign checkpoint file: the engine-state blob is
// versioned RLP (internal/ethsim checkpoint v1); this container adds the
// campaign-level context the CLI needs to resume — schedule position plus
// the NodeID→vertex mapping for edge output.
const checkpointMagic = "TSCKPT1\n"

// backPair is one NodeID→vertex entry, serialized as a pair because JSON
// object keys would stringify the NodeID.
type backPair struct {
	ID types.NodeID
	V  int
}

// trackingMeta is the checkpoint tail of a -track run: the tracker snapshot
// plus the seeding-census baselines and cumulative tracker spend the resumed
// summary arithmetic needs (the continuation cannot re-measure them).
type trackingMeta struct {
	State      *tracker.State
	TicksDone  int
	EventIndex int

	BaselineTxs      int
	BaselineEther    float64
	BaselineDuration float64
	CensusScore      core.Score

	TrackerTxs      int
	TrackerEther    float64
	TrackerDuration float64
}

// campaignMeta is the JSON tail of a checkpoint file. Exactly one of
// Campaign (a full-census campaign) and Tracking (a -track run) is set.
type campaignMeta struct {
	Seed       int64
	K          int
	EdgeBudget int
	// Super is the measurer's supernode index in Network.Supernodes():
	// pre-processing registers a second (monitor) supernode, so the restored
	// network can hold several.
	Super    int
	Targets  []types.NodeID
	Back     []backPair
	Campaign *core.CampaignState `json:",omitempty"`
	Tracking *trackingMeta       `json:",omitempty"`
}

// sortedBack lists a NodeID→vertex map in ascending NodeID order, so the
// same campaign state always serializes to the same checkpoint bytes.
func sortedBack(back map[types.NodeID]int) []backPair {
	pairs := make([]backPair, 0, len(back))
	for id, v := range back {
		pairs = append(pairs, backPair{ID: id, V: v})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].ID < pairs[j].ID })
	return pairs
}

// backMap rebuilds the NodeID→vertex map a checkpoint carries.
func (m *campaignMeta) backMap() map[types.NodeID]int {
	back := make(map[types.NodeID]int, len(m.Back))
	for _, p := range m.Back {
		back[p.ID] = p.V
	}
	return back
}

// writeCheckpoint persists {magic, len(blob), blob, meta-JSON} atomically:
// the bytes land in a temp file in the destination directory and rename into
// place, so a kill mid-write leaves the previous checkpoint intact.
func writeCheckpoint(path string, blob []byte, meta *campaignMeta) error {
	var buf bytes.Buffer
	buf.WriteString(checkpointMagic)
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(len(blob)))
	buf.Write(hdr[:])
	buf.Write(blob)
	enc, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("checkpoint meta: %w", err)
	}
	buf.Write(enc)

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".toposhot-ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// readCheckpoint parses a file written by writeCheckpoint.
func readCheckpoint(path string) ([]byte, *campaignMeta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if len(data) < len(checkpointMagic)+8 || string(data[:len(checkpointMagic)]) != checkpointMagic {
		return nil, nil, fmt.Errorf("%s: not a toposhot checkpoint", path)
	}
	rest := data[len(checkpointMagic):]
	n := binary.BigEndian.Uint64(rest[:8])
	rest = rest[8:]
	if uint64(len(rest)) < n {
		return nil, nil, fmt.Errorf("%s: truncated checkpoint (%d of %d blob bytes)", path, len(rest), n)
	}
	blob := rest[:n]
	meta := &campaignMeta{}
	if err := json.Unmarshal(rest[n:], meta); err != nil {
		return nil, nil, fmt.Errorf("%s: checkpoint meta: %w", path, err)
	}
	if meta.Campaign == nil && meta.Tracking == nil {
		return nil, nil, fmt.Errorf("%s: checkpoint has neither campaign nor tracking state", path)
	}
	return blob, meta, nil
}
