// Package wire defines the devp2p-lite message codec used by the live TCP
// node (internal/node): RLP-encoded payloads in length-prefixed frames.
//
// The message set is the eth-protocol subset TopoShot interacts with:
//
//	Status                     — handshake: protocol version and network id
//	Transactions               — full transaction push (batched)
//	NewPooledTransactionHashes — announcement
//	GetPooledTransactions      — announcement response request
//	PooledTransactions         — requested transaction bodies
//
// Frame layout: 4-byte big-endian payload length, 1-byte message code,
// RLP payload. Frames are capped at MaxFrameSize.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"toposhot/internal/rlp"
	"toposhot/internal/types"
)

// Message codes.
const (
	CodeStatus byte = iota
	CodeTransactions
	CodeNewPooledTransactionHashes
	CodeGetPooledTransactions
	CodePooledTransactions
	CodeDisconnect
)

// MaxFrameSize bounds a frame payload (sanity cap against corrupt peers).
const MaxFrameSize = 16 << 20

// ProtocolVersion is the handshake protocol version.
const ProtocolVersion = 66

// Status is the handshake message; its field order is the payload layout.
type Status struct {
	ProtocolVersion uint64
	NetworkID       uint64
	ClientVersion   string
}

// Msg is a decoded wire message.
type Msg struct {
	Code byte

	// Status is set for CodeStatus.
	Status Status
	// Txs is set for CodeTransactions and CodePooledTransactions.
	Txs []*types.Transaction
	// Hashes is set for CodeNewPooledTransactionHashes and
	// CodeGetPooledTransactions.
	Hashes []types.Hash
	// Reason is set for CodeDisconnect.
	Reason string
}

// txRecord is a transaction's wire form, [from, to, nonce, gasPrice, gas,
// value, data]; the Transactions and PooledTransactions payloads are lists
// of it.
type txRecord struct {
	From, To                    types.Address
	Nonce, GasPrice, Gas, Value uint64
	Data                        []byte
}

// encodePayload returns the RLP payload for a message.
func encodePayload(m Msg) ([]byte, error) {
	switch m.Code {
	case CodeStatus:
		return rlp.Marshal(m.Status)
	case CodeTransactions, CodePooledTransactions:
		recs := make([]txRecord, len(m.Txs))
		for i, tx := range m.Txs {
			recs[i] = txRecord{tx.From, tx.To, tx.Nonce, tx.GasPrice, tx.Gas, tx.Value, tx.Data}
		}
		return rlp.Marshal(recs)
	case CodeNewPooledTransactionHashes, CodeGetPooledTransactions:
		return rlp.Marshal(m.Hashes)
	case CodeDisconnect:
		return rlp.Marshal([]string{m.Reason})
	default:
		return nil, fmt.Errorf("wire: unknown code %d", m.Code)
	}
}

// decodePayload parses the RLP payload for a message code.
func decodePayload(code byte, payload []byte) (Msg, error) {
	m := Msg{Code: code}
	var err error
	switch code {
	case CodeStatus:
		err = rlp.Unmarshal(payload, &m.Status)
	case CodeTransactions, CodePooledTransactions:
		var recs []txRecord
		if err = rlp.Unmarshal(payload, &recs); err == nil {
			for _, r := range recs {
				m.Txs = append(m.Txs, &types.Transaction{From: r.From, To: r.To, Nonce: r.Nonce,
					GasPrice: r.GasPrice, Gas: r.Gas, Value: r.Value, Data: r.Data})
			}
		}
	case CodeNewPooledTransactionHashes, CodeGetPooledTransactions:
		err = rlp.Unmarshal(payload, &m.Hashes)
	case CodeDisconnect:
		// The reason is optional, and whatever follows it is ignored.
		var it rlp.Item
		var fields []rlp.Item
		if it, err = rlp.Decode(payload); err == nil {
			if fields, err = it.AsList(); err == nil && len(fields) > 0 {
				var b []byte
				b, err = fields[0].AsBytes()
				m.Reason = string(b)
			}
		}
	default:
		err = fmt.Errorf("wire: unknown code %d", code)
	}
	return m, err
}

// WriteMsg frames and writes a message to w.
func WriteMsg(w io.Writer, m Msg) error {
	payload, err := encodePayload(m)
	if err != nil {
		return err
	}
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("wire: frame too large (%d bytes)", len(payload))
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = m.Code
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// ReadMsg reads and decodes one framed message from r.
func ReadMsg(r io.Reader) (Msg, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Msg{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxFrameSize {
		return Msg{}, fmt.Errorf("wire: oversized frame (%d bytes)", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Msg{}, err
	}
	return decodePayload(hdr[4], payload)
}
