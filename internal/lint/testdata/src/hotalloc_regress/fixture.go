// Package regress models ethsim's gossip dispatch with the pre-overhaul
// shape the hotalloc rule exists to keep out: a closure captured per message
// to schedule its delivery. Seeding this into the dispatch path must fire.
package regress

type engine struct{ t float64 }

func (e *engine) After(d float64, fn func()) {}

type msg struct{ to, id uint64 }

type network struct {
	eng  *engine
	msgs []msg
}

func (n *network) deliverTxs(m msg) { _ = m }

// route schedules delivery with a closure per message — one allocation per
// gossip hop that the Handler+arg API avoids.
//
//toposhot:hotpath
func (n *network) route(m msg) {
	n.eng.After(0.05, func() { n.deliverTxs(m) }) // want: closure per message
}
