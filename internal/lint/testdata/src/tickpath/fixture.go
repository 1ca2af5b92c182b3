// Package fixture exercises the O(Δ) tick-path bans. The dyn*/trk* functions
// carrying //toposhot:hotpath run once per tracked change on every tracker
// tick: map iteration and allocations inside them must fire; the
// pooled-reslice idiom and the batch fallback (dynRebuild) must stay silent.
// Loaded as toposhot/internal/graph/fixture, outside the nodeterminism
// simulation scope: the directive alone puts a function under both bans, in
// any package, so the order-dependent float accumulation stays silent here
// (nodeterminism.golden pins that finding).
package fixture

type Dynamic struct {
	scratch []int32
	index   map[int32]int32
	weight  map[int32]float64
}

func sink(v interface{}) {}

// dynApplyAdd is on the tick path: every allocation and map walk below must
// be flagged; the pooled reslice must not.
//
//toposhot:hotpath
func (d *Dynamic) dynApplyAdd(su, sv int32) {
	undo := func() {} // closure per change
	undo()
	seen := map[int32]bool{su: true} // map literal per change
	_ = seen
	pair := []int32{su, sv} // slice literal per change
	_ = pair
	var grown []int32
	grown = append(grown, su) // growing append on a fresh local
	_ = grown
	queue := d.scratch[:0] // pooled reslice: silent
	queue = append(queue, sv)
	_ = queue
	sink(su) // int32 boxed into an interface argument
	var sum float64
	for k := range d.index { // map iteration on the tick path
		sum += d.weight[k] // order-dependent float sum (simulation scope only)
	}
	_ = sum
}

// trkPlan is on the tick path too.
//
//toposhot:hotpath
func (d *Dynamic) trkPlan() []int32 {
	var plan []int32
	plan = append(plan, 0) // growing append on a fresh local
	return plan
}

// dynRebuild is the O(V+E) disconnect fallback and deliberately off the
// tick path: allocations and map walks here are allowed.
func (d *Dynamic) dynRebuild() {
	fresh := make(map[int32]int32, len(d.index))
	for k, v := range d.index {
		fresh[k] = v
	}
	d.index = fresh
}
