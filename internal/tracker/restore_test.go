package tracker

import (
	"encoding/json"
	"math"
	"testing"

	"toposhot/internal/core"
)

// restoreCfg makes a pair stale two ticks after its verdict.
var restoreCfg = Config{Budget: 3, HalfLife: 1, MinConfidence: 0.25}

// restorableState is a 4-target tracker's state after two ticks: six pairs,
// some re-verified, so the buckets hold more than tick 0.
func restorableState(tb testing.TB) *State {
	tb.Helper()
	truth := ringTruth(4)
	tr, err := New(restoreCfg, targetIDs(4), truth, &oracleProber{truth: truth})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := tr.Tick(); err != nil {
			tb.Fatal(err)
		}
	}
	return tr.State()
}

// restoreAndTick restores st and runs two ticks against a stub prober. It
// returns the first error; a panic fails the caller's test.
func restoreAndTick(st *State) error {
	tr, err := Restore(st, restoreCfg, &oracleProber{truth: core.NewEdgeSet()})
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if _, err := tr.Tick(); err != nil {
			return err
		}
	}
	return nil
}

// TestRestoreRejectsDamagedState: a damaged tracking checkpoint is an error,
// never a panic, a wrapped counter or an allocation sized by the tick number.
func TestRestoreRejectsDamagedState(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(st *State)
		ok     bool
	}{
		{"intact", func(*State) {}, true},
		{"negative tick", func(st *State) { st.Tick = -5 }, false},
		{"tick past int32", func(st *State) { st.Tick = math.MaxInt32 + 1 }, false},
		{"tick 2^40", func(st *State) { st.Tick = 1 << 40 }, false},
		{"tick 2^30 far past every verdict", func(st *State) { st.Tick = 1 << 30 }, true},
		{"tick counter exhausted", func(st *State) { st.Tick = math.MaxInt32 }, false},
		{"last tick past tick", func(st *State) { st.Pairs[0].LastTick = int32(st.Tick) + 1 }, false},
		{"negative last tick", func(st *State) { st.Pairs[0].LastTick = -1 }, false},
		{"buckets out of order", func(st *State) {
			last := len(st.Pairs) - 1
			for last > 0 && st.Pairs[last].Unbucketed {
				last--
			}
			st.Pairs[0], st.Pairs[last] = st.Pairs[last], st.Pairs[0]
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := restorableState(t)
			tc.damage(st)
			if err := restoreAndTick(st); (err == nil) != tc.ok {
				t.Fatalf("err = %v, want accepted %v", err, tc.ok)
			}
		})
	}
}

// FuzzTrackerRestore: any JSON state restores to an error or to a tracker
// that runs two ticks.
func FuzzTrackerRestore(f *testing.F) {
	seed, err := json.Marshal(restorableState(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var st State
		// The pair table is quadratic in the targets; damage, not scale, is
		// what this target explores.
		if json.Unmarshal(data, &st) != nil || len(st.Targets) > 64 {
			return
		}
		_ = restoreAndTick(&st)
	})
}
