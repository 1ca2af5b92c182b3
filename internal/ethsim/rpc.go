package ethsim

import (
	"errors"

	"toposhot/internal/types"
)

// RPC is the JSON-RPC-shaped facade a measurement node uses to interrogate
// a target node: the reproduction's analogue of eth_getTransactionByHash,
// admin_peers, txpool_content and web3_clientVersion. Unresponsive nodes
// error on every call.
//
// A caller that minted the transaction it asks about uses HasTransaction,
// which compares content and computes no hash; GetTransactionByHash is for a
// caller that holds only the hash, and makes the target's pool index
// everything it buffers by hash first (txpool.Pool's on-demand index) — on a
// pool just filled with Z futures that is Z digests.
type RPC struct {
	n *Node
}

// RPC returns the node's query facade.
func (nd *Node) RPC() RPC { return RPC{n: nd} }

// ErrUnresponsive is returned for RPC calls against a dead node.
var ErrUnresponsive = errors.New("ethsim: node unresponsive")

// ClientVersion returns the node's web3_clientVersion string.
func (r RPC) ClientVersion() (string, error) {
	if r.n.cfg.Unresponsive {
		return "", ErrUnresponsive
	}
	v := r.n.cfg.Policy.ClientVersion
	if r.n.cfg.VersionTag != "" {
		v += "/" + r.n.cfg.VersionTag
	}
	return v, nil
}

// GetTransactionByHash returns the buffered transaction, or nil when the
// node does not hold it (eth_getTransactionByHash against the mempool).
func (r RPC) GetTransactionByHash(h types.Hash) (*types.Transaction, error) {
	if r.n.cfg.Unresponsive {
		return nil, ErrUnresponsive
	}
	return r.n.pool.Get(h), nil
}

// HasTransaction reports whether the node buffers tx: the same question as
// GetTransactionByHash(tx.Hash()) != nil, asked by object.
func (r RPC) HasTransaction(tx *types.Transaction) (bool, error) {
	if r.n.cfg.Unresponsive {
		return false, ErrUnresponsive
	}
	return r.n.pool.Contains(tx), nil
}

// PeerList returns the node's active neighbors (admin_peers). TopoShot only
// calls this on nodes the experimenter controls — ground truth is never
// available for remote nodes, which is the paper's whole premise.
func (r RPC) PeerList() ([]types.NodeID, error) {
	if r.n.cfg.Unresponsive {
		return nil, ErrUnresponsive
	}
	return r.n.Peers(), nil
}

// TxpoolStatus returns the pending and future population (txpool_status).
func (r RPC) TxpoolStatus() (pending, future int, err error) {
	if r.n.cfg.Unresponsive {
		return 0, 0, ErrUnresponsive
	}
	return r.n.pool.PendingCount(), r.n.pool.FutureCount(), nil
}
