package experiments

import (
	"errors"
	"runtime"
	"testing"

	"toposhot/internal/core"
	"toposhot/internal/netgen"
)

// TestCensusHeapIsBounded: a census's live heap does not grow with its
// length. Each batch retires the previous one's watched hashes and their
// sightings, so after k and after 2k batches of RunCensus's body — every
// batch's txC floods seen from each peer of M — the heap agrees within
// 10 %. Only the cost ledger, which keeps each pending transaction for the
// final fee sum, still grows. A log kept for the whole run outgrows the bound.
func TestCensusHeapIsBounded(t *testing.T) {
	const batches = 8
	cfg := RopstenCensus(5)
	cfg.Grow = cfg.Grow.WithN(200)
	errStop := errors.New("stop")
	heapAfter := func(stopAt int) uint64 {
		wv := cfg.World(netgen.Grow(cfg.Grow))
		world := wv.Build()
		world.StartTraffic()
		m := world.Measurer(wv.Params())
		_, _, err := world.Census(m, cfg, world.Eligible(m), nil, func(st *core.CampaignState) error {
			if st.BatchesDone == stopAt {
				return errStop
			}
			return nil
		})
		if !errors.Is(err, errStop) {
			t.Fatalf("census of %d batches: %v", stopAt, err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(world)
		runtime.KeepAlive(m)
		return ms.HeapAlloc
	}
	h1, h2 := heapAfter(batches), heapAfter(2*batches)
	t.Logf("live heap after %d batches %.2f MB, after %d %.2f MB", batches, float64(h1)/1e6, 2*batches, float64(h2)/1e6)
	if lo, hi := min(h1, h2), max(h1, h2); float64(hi) > 1.1*float64(lo) {
		t.Fatalf("live heap %d B after %d batches, %d B after %d: more than 10 %% apart", h1, batches, h2, 2*batches)
	}
}
