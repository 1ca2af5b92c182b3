// Package types defines the fundamental Ethereum-like data types used across
// the TopoShot reproduction: addresses, hashes, transactions and blocks.
//
// The types mirror the subset of the Ethereum data model that TopoShot's
// measurement logic depends on: an account-based transaction model where each
// transaction carries a sender address, a per-sender monotonically increasing
// nonce, a gas allowance and a gas price. Cryptographic signatures are out of
// scope for topology measurement, so a transaction's content is named on the
// wire and in checkpoints by a collision-resistant hash (SHA-256 based)
// instead of a secp256k1 signature; the sender address is carried explicitly.
// Inside the process nothing needs that hash to tell transactions apart: a
// pool knows a pending object by the 32-bit ID it drew on becoming pending,
// and any content by the one sender slot (From, Nonce) it can occupy.
package types

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync/atomic"
)

// AddressLength is the length of an address in bytes, as in Ethereum.
const AddressLength = 20

// HashLength is the length of a hash in bytes.
const HashLength = 32

// Address is a 20-byte account or node identifier.
type Address [AddressLength]byte

// Hash is a 32-byte digest identifying transactions and blocks.
type Hash [HashLength]byte

// Gwei is a gas price unit: 1 Gwei = 1e9 Wei. Prices in this codebase are
// expressed in Wei so that fractional-Gwei replacement thresholds (for
// example a 12.5% bump on 0.1 Gwei) stay exact in integer arithmetic.
const Gwei = uint64(1_000_000_000)

// AddressFromUint64 derives a deterministic address from an integer seed.
// It is used by simulators and tests to mint distinct accounts cheaply; the
// seed is spread with a 64-bit mixer (no hashing — simulators mint millions
// of accounts) and embedded in the low bytes.
func AddressFromUint64(n uint64) Address {
	var a Address
	mixed := n
	mixed ^= mixed >> 33
	mixed *= 0xff51afd7ed558ccd
	mixed ^= mixed >> 33
	binary.BigEndian.PutUint64(a[0:8], mixed)
	binary.BigEndian.PutUint64(a[12:20], n)
	return a
}

// Account-space prefixes partition the 64-bit account-seed space among the
// subsystems that mint synthetic accounts, so measurement strategies sharing
// one network can never collide on a sender — a collision would entangle two
// strategies' nonce state mid-comparison and corrupt both. Each space owns
// the top byte of the seed passed to AddressFromUint64; the low 56 bits are
// the minter's private sequence. SpaceTopoShot is 0x80 because the original
// measurer namespaced its accounts with the high bit (1<<63), and existing
// fixed-seed results must stay byte-identical.
const (
	// SpaceTopoShot namespaces core.Measurer's measurement accounts.
	SpaceTopoShot uint64 = 0x80
	// SpaceTxProbe namespaces the TxProbe baseline's conflict/marker senders.
	SpaceTxProbe uint64 = 0xa1
	// SpaceDEthna namespaces DEthna's marked-transaction senders.
	SpaceDEthna uint64 = 0xa2
	// SpaceEthna namespaces Ethna's redundancy-probe senders.
	SpaceEthna uint64 = 0xa3
)

// NamespacedAddress derives a deterministic address from a per-subsystem
// account space and a sequence number. Sequences above 2^56 would bleed into
// the prefix byte; minters never get close (a full mainnet census emits ~10^9
// transactions), and the mask keeps even a pathological overflow inside its
// own space rather than silently aliasing another.
func NamespacedAddress(space, seq uint64) Address {
	return AddressFromUint64(space<<56 | seq&(1<<56-1))
}

// String implements fmt.Stringer with a shortened display form.
func (a Address) String() string {
	h := hex.EncodeToString(a[:])
	return "0x" + h[:8] + "…" + h[len(h)-4:]
}

// String implements fmt.Stringer with a shortened display form.
func (h Hash) String() string {
	s := hex.EncodeToString(h[:])
	return "0x" + s[:8] + "…"
}

// Transaction is an account-model transaction. Gas prices are in Wei.
//
// A transaction is immutable after creation; Hash() memoizes the digest on
// first use, so a *Transaction must not be mutated once shared. Every exported
// field is part of the hash preimage and of Equal, and nothing else is:
// TestEqualMatchesHash fails by field name when the two drift.
//
// A Transaction is handled by pointer only. ID names the object, so a copy
// made by value would share its original's ID — and a pool holding one would
// report the other as already known. The noCopy field makes go vet reject
// such a copy; Copy is the way to duplicate one. It is 120 B, the 128-B size
// class (TestTransactionSize): the fields every offer reads fill the first 64
// bytes, and only a transaction somebody hashes pays for the memo's 32.
type Transaction struct {
	_ noCopy

	From Address // sender account (explicit; no signature recovery)
	To   Address // receiver account

	// id is the object's identity, zero until the first ID call.
	id uint32
	// DynamicFee marks an EIP-1559 (type-2) transaction: GasPrice is the
	// fee cap and Tip the priority fee.
	DynamicFee bool

	Nonce    uint64 // per-sender sequence number
	GasPrice uint64 // Wei per gas unit the sender bids (fee cap under EIP-1559)
	Gas      uint64 // gas allowance (21000 for a plain transfer)
	Value    uint64 // Wei transferred
	// Tip is the EIP-1559 priority fee (max tip to the miner). A zero Tip
	// on a transaction with DynamicFee unset means a legacy transaction
	// whose GasPrice is both cap and tip.
	Tip  uint64
	Data []byte // optional payload

	hash *Hash // memoized digest; nil until the first Hash call
}

// noCopy is embedded in types that must not be copied by value: go vet's
// copylocks check reports any copy of a struct with Lock and Unlock methods.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// lastTxID is the most recent ID handed out; IDs start at 1, so zero means
// "not assigned yet".
var lastTxID atomic.Uint32

// ID returns the transaction object's identity: a process-wide unique
// non-zero number assigned on first call. It names the object, not its
// content — it is never hashed, compared by Equal, serialized or used to
// order anything — so two Equal transactions have different IDs, and a Copy
// gets its own. Concurrent first calls on one object agree on one value.
// Pools call it when they first hold the object pending, AssignedID otherwise.
//
//toposhot:hotpath
func (tx *Transaction) ID() uint32 {
	if id := atomic.LoadUint32(&tx.id); id != 0 {
		return id
	}
	return tx.assignID()
}

// AssignedID returns the object's ID if it has drawn one, and 0 otherwise.
func (tx *Transaction) AssignedID() uint32 { return atomic.LoadUint32(&tx.id) }

// assignID takes the next ID from the process counter and installs it unless
// another goroutine installed one first. The counter never wraps: a reused
// ID would alias two live objects, so exhausting it panics.
func (tx *Transaction) assignID() uint32 {
	for {
		last := lastTxID.Load()
		if last == math.MaxUint32 {
			panic("types: transaction IDs exhausted")
		}
		if lastTxID.CompareAndSwap(last, last+1) {
			if atomic.CompareAndSwapUint32(&tx.id, 0, last+1) {
				return last + 1
			}
			return atomic.LoadUint32(&tx.id)
		}
	}
}

// TxGasTransfer is the intrinsic gas of a plain value transfer.
const TxGasTransfer = 21000

// NewTransaction constructs a plain value-transfer transaction.
func NewTransaction(from, to Address, nonce, gasPrice, value uint64) *Transaction {
	return &Transaction{From: from, To: to, Nonce: nonce, GasPrice: gasPrice, Gas: TxGasTransfer, Value: value}
}

// Hash returns the content digest of the transaction, computing and
// memoizing it on first call; the memo is the one allocation hashing makes.
func (tx *Transaction) Hash() Hash {
	if tx.hash != nil {
		return *tx.hash
	}
	// One sha256.Sum256 over a stack buffer: no digest object, no per-field
	// Write. The preimage is From ‖ To ‖ six big-endian words ‖ Data; only a
	// payload beyond the buffer's slack spills to the heap.
	var buf [txHashFixed + 168]byte
	b := append(buf[:0], tx.From[:]...)
	b = append(b, tx.To[:]...)
	dyn := uint64(0)
	if tx.DynamicFee {
		dyn = 1
	}
	for _, v := range [...]uint64{tx.Nonce, tx.GasPrice, tx.Gas, tx.Value, tx.Tip, dyn} {
		b = binary.BigEndian.AppendUint64(b, v)
	}
	b = append(b, tx.Data...)
	h := Hash(sha256.Sum256(b))
	tx.hash = &h
	return h
}

// txHashFixed is the length of a transaction's hash preimage before Data.
const txHashFixed = 2*AddressLength + 6*8

// Hashed reports whether the digest has been computed: it reads the memo and
// nothing else. Tests use it to prove that a path never asked for a hash.
func (tx *Transaction) Hashed() bool { return tx.hash != nil }

// Equal reports whether o is tx or has the same content — field for field the
// preimage Hash digests, so two transactions are Equal exactly when their
// hashes are. It is what a holder of both objects compares instead of
// computing either digest.
func (tx *Transaction) Equal(o *Transaction) bool {
	return tx == o || tx.Nonce == o.Nonce && tx.GasPrice == o.GasPrice && tx.From == o.From &&
		tx.To == o.To && tx.Gas == o.Gas && tx.Value == o.Value &&
		tx.Tip == o.Tip && tx.DynamicFee == o.DynamicFee && bytes.Equal(tx.Data, o.Data)
}

// Fee returns the maximum fee the transaction can pay (Gas × GasPrice).
func (tx *Transaction) Fee() uint64 { return tx.Gas * tx.GasPrice }

// FeeCap returns the maximum per-gas price the sender will pay: the
// EIP-1559 fee cap for dynamic-fee transactions, the gas price otherwise.
func (tx *Transaction) FeeCap() uint64 { return tx.GasPrice }

// EffectiveTip returns what the miner earns per gas at the given base fee:
// min(tip, feeCap − baseFee) for dynamic-fee transactions, gasPrice −
// baseFee for legacy ones; 0 when the cap is below the base fee.
func (tx *Transaction) EffectiveTip(baseFee uint64) uint64 {
	if tx.FeeCap() < baseFee {
		return 0
	}
	headroom := tx.FeeCap() - baseFee
	if tx.DynamicFee && tx.Tip < headroom {
		return tx.Tip
	}
	return headroom
}

// NewDynamicFeeTransaction constructs an EIP-1559 transfer with the given
// fee cap and priority fee.
func NewDynamicFeeTransaction(from, to Address, nonce, feeCap, tip, value uint64) *Transaction {
	return &Transaction{
		From: from, To: to, Nonce: nonce,
		GasPrice: feeCap, Tip: tip, DynamicFee: true,
		Gas: TxGasTransfer, Value: value,
	}
}

// String renders a compact human-readable description.
func (tx *Transaction) String() string {
	return fmt.Sprintf("tx{%v#%d @%dwei %v}", tx.From, tx.Nonce, tx.GasPrice, tx.Hash())
}

// Copy returns a deep copy of the transaction's content: a distinct object
// that draws its own ID and has no hash memo, so the copy is safe to mutate
// before its first Hash call.
func (tx *Transaction) Copy() *Transaction {
	return &Transaction{
		From: tx.From, To: tx.To, Nonce: tx.Nonce, GasPrice: tx.GasPrice, Gas: tx.Gas,
		Value: tx.Value, Data: append([]byte(nil), tx.Data...), Tip: tx.Tip, DynamicFee: tx.DynamicFee,
	}
}

// Run is a sequence of Count plain transfers of no value from one sender at
// consecutive nonces and one price — a measurement node's mempool fill, whose
// futures nobody needs as objects until something asks for one. Member k
// (0 ≤ k < Count) has nonce Nonce+k and pays the namespaced recipient
// NamespacedAddress(ToSpace, ToSeq+k); a non-zero Tip makes every member an
// EIP-1559 transaction with fee cap Price. Like a Transaction, a Run is shared
// by pointer and immutable once shared.
type Run struct {
	From           Address
	Nonce          uint64 // member 0's nonce
	Count          int
	Price          uint64 // gas price (fee cap under EIP-1559)
	Tip            uint64
	ToSpace, ToSeq uint64 // member 0's recipient account
}

// Tx builds member k as a new object: NewTransaction, or
// NewDynamicFeeTransaction when the run carries a tip.
func (r *Run) Tx(k int) *Transaction {
	to := NamespacedAddress(r.ToSpace, r.ToSeq+uint64(k))
	if r.Tip > 0 {
		return NewDynamicFeeTransaction(r.From, to, r.Nonce+uint64(k), r.Price, r.Tip, 0)
	}
	return NewTransaction(r.From, to, r.Nonce+uint64(k), r.Price, 0)
}

// Equal reports whether tx has member k's content — r.Tx(k).Equal(tx),
// without building the member.
func (r *Run) Equal(k int, tx *Transaction) bool {
	return tx.Nonce == r.Nonce+uint64(k) && tx.GasPrice == r.Price && tx.From == r.From &&
		tx.To == NamespacedAddress(r.ToSpace, r.ToSeq+uint64(k)) && tx.Gas == TxGasTransfer &&
		tx.Value == 0 && tx.Tip == r.Tip && tx.DynamicFee == (r.Tip > 0) && len(tx.Data) == 0
}

// Block is a mined block: an ordered list of included transactions under a
// gas limit. Headers carry only the fields the reproduction needs.
type Block struct {
	Number   uint64
	Time     float64 // simulation timestamp (seconds)
	GasLimit uint64
	GasUsed  uint64
	Txs      []*Transaction
}

// Full reports whether the block is "full" in the V1 sense of Appendix C:
// the residual gas cannot fit one more plain transfer.
func (b *Block) Full() bool { return b.GasLimit-b.GasUsed < TxGasTransfer }

// MinGasPrice returns the lowest gas price among included transactions and
// true, or 0 and false for an empty block.
func (b *Block) MinGasPrice() (uint64, bool) {
	if len(b.Txs) == 0 {
		return 0, false
	}
	min := b.Txs[0].GasPrice
	for _, tx := range b.Txs[1:] {
		if tx.GasPrice < min {
			min = tx.GasPrice
		}
	}
	return min, true
}

// NodeID identifies a P2P node (distinct from account addresses).
type NodeID uint32

// String implements fmt.Stringer.
func (id NodeID) String() string { return fmt.Sprintf("n%d", uint32(id)) }
