package experiments

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"toposhot/internal/core"
	"toposhot/internal/types"
)

// checkpointMagic heads a campaign checkpoint file: the engine-state blob is
// versioned RLP (internal/ethsim's checkpoint format); the JSON tail after it
// adds the campaign context a resume needs — schedule position plus the
// NodeID→vertex mapping for edge output.
const checkpointMagic = "TSCKPT1\n"

// Checkpoint is a resumable campaign file: a census world's engine state plus
// the campaign around it. Exactly one of Campaign (a full census) and
// Tracking (an incremental-tracking run) is set. The exported fields after
// Blob, in order, are the file's JSON tail.
type Checkpoint struct {
	// Blob is the engine state; the file stores it ahead of the JSON tail.
	Blob       []byte `json:"-"`
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
	Tracking *TrackingResume     `json:",omitempty"`
}

// backPair is one NodeID→vertex entry, serialized as a pair because JSON
// object keys would stringify the NodeID.
type backPair struct {
	ID types.NodeID
	V  int
}

// Checkpoint snapshots the world's engine together with the campaign context
// cfg and targets describe; the caller sets Campaign or Tracking. Back is
// listed in ascending NodeID order, so the same campaign state always
// serializes to the same bytes.
func (w *Built) Checkpoint(cfg CensusConfig, targets []types.NodeID) (*Checkpoint, error) {
	blob, err := w.Net.Checkpoint()
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{Blob: blob, Seed: cfg.Seed, K: cfg.GroupK, EdgeBudget: cfg.EdgeBudget, Targets: targets}
	for i, s := range w.Net.Supernodes() {
		if s == w.Super {
			ck.Super = i
		}
	}
	ck.Back = make([]backPair, 0, len(w.Inst.Back))
	for id, v := range w.Inst.Back {
		ck.Back = append(ck.Back, backPair{ID: id, V: v})
	}
	sort.Slice(ck.Back, func(i, j int) bool { return ck.Back[i].ID < ck.Back[j].ID })
	return ck, nil
}

// Write persists {magic, len(blob), blob, JSON tail} atomically: the bytes
// land in a temp file in the destination directory and rename into place, so
// a kill mid-write leaves the previous checkpoint intact.
func (ck *Checkpoint) Write(path string) error {
	var buf bytes.Buffer
	buf.WriteString(checkpointMagic)
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(len(ck.Blob)))
	buf.Write(hdr[:])
	buf.Write(ck.Blob)
	enc, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("checkpoint meta: %w", err)
	}
	buf.Write(enc)

	tmp, err := os.CreateTemp(filepath.Dir(path), ".toposhot-ckpt-*")
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

// ReadCheckpoint parses a file written by Checkpoint.Write. It does not touch
// the blob: RestoreCensusWorld does, so a caller can check the checkpoint's
// kind before paying for the restore.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(checkpointMagic)+8 || string(data[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("%s: not a toposhot checkpoint", path)
	}
	rest := data[len(checkpointMagic):]
	n := binary.BigEndian.Uint64(rest[:8])
	rest = rest[8:]
	if uint64(len(rest)) < n {
		return nil, fmt.Errorf("%s: truncated checkpoint (%d of %d blob bytes)", path, len(rest), n)
	}
	ck := &Checkpoint{Blob: rest[:n]}
	if err := json.Unmarshal(rest[n:], ck); err != nil {
		return nil, fmt.Errorf("%s: checkpoint meta: %w", path, err)
	}
	switch {
	case ck.Campaign == nil && ck.Tracking == nil:
		return nil, fmt.Errorf("%s: checkpoint has neither campaign nor tracking state", path)
	case ck.Tracking != nil && ck.Tracking.Tracker == nil:
		return nil, fmt.Errorf("%s: tracking checkpoint without tracker state", path)
	}
	return ck, nil
}
