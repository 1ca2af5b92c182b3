package ethsim

import (
	"math/rand"

	"toposhot/internal/sim"
	"toposhot/internal/types"
)

// Workload generates background transaction traffic: Poisson arrivals of
// plain transfers at uniformly random gas prices, submitted at uniformly
// random nodes. The paper needs exactly this on under-loaded testnets — "we
// launch another node that sends a number of background transactions" so
// that txC can survive in an operating mempool (§6.2.1).
type Workload struct {
	net *Network

	// Rate is the network-wide arrival rate in transactions per second.
	Rate float64
	// PriceLo and PriceHi bound the uniform gas-price distribution (Wei).
	PriceLo, PriceHi uint64

	nonces  map[types.Address]uint64
	sinks   []types.NodeID
	stopped bool
	stopAt  float64
	seedIdx uint64
	// index is this workload's slot in the network's registry — the payload
	// of its recurring tick event.
	index int
	// crng is private to the workload so traffic generation stays identical
	// across twin-world runs regardless of what else draws from the engine
	// (the Appendix-C determinism requirement). Its draw count is part of the
	// checkpoint.
	crng *sim.CountedRand
	rng  *rand.Rand
	// accountBase offsets this workload's account space so two workloads on
	// one network never collide on sender accounts.
	accountBase uint64
}

// workloadAccounts is the number of distinct sender accounts a workload's
// nonce-continuing transactions cycle through.
const workloadAccounts = 256

// NewWorkload returns a workload targeting every non-supernode node.
// Workload identity (account space, RNG stream) is derived from the network
// seed and a per-network counter, so twin networks built identically get
// identical workloads (the Appendix-C replay requirement).
func NewWorkload(net *Network, rate float64, priceLo, priceHi uint64) *Workload {
	serial := uint64(len(net.workloads) + 1)
	crng := sim.NewCountedRand(net.Config().Seed ^ int64(serial)<<17 ^ 0x7f4a7c15)
	w := &Workload{
		net:         net,
		Rate:        rate,
		PriceLo:     priceLo,
		PriceHi:     priceHi,
		nonces:      make(map[types.Address]uint64),
		accountBase: serial << 32,
		crng:        crng,
		rng:         crng.Rand(),
		index:       len(net.workloads),
	}
	for _, nd := range net.nodes {
		if nd.cfg.Label != "supernode" {
			w.sinks = append(w.sinks, nd.ID())
		}
	}
	net.workloads = append(net.workloads, w)
	return w
}

// account returns the i-th sender account of this workload.
func (w *Workload) account(i int) types.Address {
	return types.AddressFromUint64(w.accountBase | uint64(i))
}

// next mints the next background transaction. Mostly one-shot accounts
// (nonce 0, always executable); a small share continues an existing
// account's nonce sequence through its home node, exercising the
// pending/future machinery the way real traffic does. One-shot dominance
// keeps the supply immune to nonce-chain orphaning when old transactions
// expire or are dropped — real users resubmit, which amounts to the same.
func (w *Workload) next() (*types.Transaction, types.NodeID) {
	rng := w.rng
	price := w.price()
	w.seedIdx++
	to := types.AddressFromUint64(w.accountBase | 0xffff0000 | w.seedIdx)
	if rng.Float64() < 0.9 {
		from := types.AddressFromUint64(w.accountBase | 0xdddd0000_00000000 | w.seedIdx)
		tx := types.NewTransaction(from, to, 0, price, 1)
		return tx, w.sinks[rng.Intn(len(w.sinks))]
	}
	acctIdx := rng.Intn(workloadAccounts)
	from := w.account(acctIdx)
	nonce := w.nonces[from]
	w.nonces[from] = nonce + 1
	tx := types.NewTransaction(from, to, nonce, price, 1)
	return tx, w.sinks[acctIdx%len(w.sinks)]
}

// price draws a gas price uniformly from [PriceLo, PriceHi).
func (w *Workload) price() uint64 {
	if w.PriceHi > w.PriceLo {
		return w.PriceLo + uint64(w.rng.Int63n(int64(w.PriceHi-w.PriceLo)))
	}
	return w.PriceLo
}

// Start begins Poisson arrivals and keeps them going until Stop or until
// virtual time reaches stopAt (0 means no limit). The recurring tick is a
// kind-tagged handler event indexing the network's workload registry, so a
// pending arrival serializes into a checkpoint. Every caller passes 0;
// stopAt stays because bench/ calls Start, and goes with the next change
// there.
func (w *Workload) Start(stopAt float64) {
	if w.Rate <= 0 || len(w.sinks) == 0 {
		return
	}
	w.stopAt = stopAt
	w.scheduleTick(w.rng.ExpFloat64() / w.Rate)
}

// scheduleTick arms the next arrival event d seconds from now.
func (w *Workload) scheduleTick(d float64) {
	arg := uint64(argKindWorkload)<<argKindShift | uint64(w.index)
	w.net.eng.AtHandler(w.net.eng.Now()+d, w.net, arg)
}

// tick fires one Poisson arrival: mint, submit, re-arm. The call order
// (mint → submit → sample gap → schedule) matches the original closure loop
// exactly, so converted runs replay byte-identically.
func (w *Workload) tick() {
	if w.stopped || (w.stopAt > 0 && w.net.Now() >= w.stopAt) {
		return
	}
	tx, sink := w.next()
	if nd := w.net.Node(sink); nd != nil {
		nd.SubmitLocal(tx)
	}
	w.scheduleTick(w.rng.ExpFloat64() / w.Rate)
}

// Stop halts the workload after the current tick.
func (w *Workload) Stop() { w.stopped = true }

// Prefill synchronously submits count transactions round-robin across all
// sinks and lets them gossip for settle seconds of virtual time — the
// "populate an operating mempool" trick used on the under-loaded testnets.
// Each prefill transaction uses a one-shot account (nonce 0), so every one
// is immediately executable everywhere regardless of arrival order.
func (w *Workload) Prefill(count int, settle float64) {
	rng := w.rng
	for i := 0; i < count; i++ {
		w.seedIdx++
		from := types.AddressFromUint64(w.accountBase | 0xeeee0000_00000000 | w.seedIdx)
		tx := types.NewTransaction(from, types.AddressFromUint64(w.seedIdx), 0, w.price(), 1)
		sink := w.sinks[rng.Intn(len(w.sinks))]
		if nd := w.net.Node(sink); nd != nil {
			nd.SubmitLocal(tx)
		}
		if i%200 == 199 {
			w.net.RunFor(0.2)
		}
	}
	w.net.RunFor(settle)
}
