package ethsim

import (
	"errors"

	"toposhot/internal/types"
)

// RPC is the JSON-RPC-shaped facade a measurement node uses to interrogate
// a target node: the reproduction's analogue of web3_clientVersion and of
// eth_getTransactionByHash asked by a caller that minted the transaction.
// Unresponsive nodes error on every call.
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

// HasTransaction reports whether the node buffers tx: eth_getTransactionByHash
// asked by object, so it compares content and computes no hash.
func (r RPC) HasTransaction(tx *types.Transaction) (bool, error) {
	if r.n.cfg.Unresponsive {
		return false, ErrUnresponsive
	}
	return r.n.pool.Contains(tx), nil
}
