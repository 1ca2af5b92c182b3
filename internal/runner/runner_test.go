package runner

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapCollectsInInputOrder(t *testing.T) {
	got := MapN(8, 100, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapMatchesSerial(t *testing.T) {
	// Each job owns a private seeded RNG — the engine-per-goroutine model in
	// miniature. Parallel widths must reproduce the serial result exactly.
	job := func(i int) uint64 {
		rng := rand.New(rand.NewSource(int64(i) * 7919))
		var acc uint64
		for j := 0; j < 1000; j++ {
			acc = acc*31 + uint64(rng.Intn(1<<20))
		}
		return acc
	}
	serial := MapN(1, 64, job)
	for _, w := range []int{2, 3, 8, 64} {
		par := MapN(w, 64, job)
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("width %d: slot %d differs", w, i)
			}
		}
	}
}

func TestMapBoundsWorkers(t *testing.T) {
	var cur, peak atomic.Int64
	MapN(3, 50, func(i int) struct{} {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		cur.Add(-1)
		return struct{}{}
	})
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d exceeds pool width 3", p)
	}
}

func TestMapZeroAndOne(t *testing.T) {
	if got := MapN(4, 0, func(i int) int { return i }); got != nil {
		t.Fatalf("n=0 returned %v", got)
	}
	if got := MapN(4, 1, func(i int) int { return 42 }); len(got) != 1 || got[0] != 42 {
		t.Fatalf("n=1 returned %v", got)
	}
}

func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate to caller")
		}
	}()
	MapN(4, 16, func(i int) int {
		if i == 7 {
			panic("job 7 failed")
		}
		return i
	})
}

func TestMapErrReturnsLowestIndexError(t *testing.T) {
	wantErr := errors.New("job 3")
	_, err := MapErr(8, 10, func(i int) (int, error) {
		switch i {
		case 3:
			return 0, wantErr
		case 9:
			return 0, errors.New("job 9")
		}
		return i, nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want the lowest-index failure", err)
	}
	out, err := MapErr(8, 10, func(i int) (int, error) { return i, nil })
	if err != nil || len(out) != 10 {
		t.Fatalf("clean run: out=%v err=%v", out, err)
	}
}

func TestSetParallelism(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d, want 3", got)
	}
	SetParallelism(0)
	if got := Parallelism(); got < 1 {
		t.Fatalf("default parallelism %d < 1", got)
	}
}

func TestCacheBuildsOncePerKey(t *testing.T) {
	var c Cache[string, int]
	var builds atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%4)
			v, err := c.Do(key, func() (int, error) {
				builds.Add(1)
				return i % 4, nil
			})
			if err != nil || v != i%4 {
				t.Errorf("Do(%s) = %d, %v", key, v, err)
			}
		}(i)
	}
	wg.Wait()
	if b := builds.Load(); b != 4 {
		t.Fatalf("builds = %d, want exactly one per key", b)
	}
}

func TestCacheDoesNotCacheErrors(t *testing.T) {
	var c Cache[string, int]
	boom := errors.New("boom")
	if _, err := c.Do("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("first Do err = %v", err)
	}
	v, err := c.Do("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry after error: %d, %v", v, err)
	}
	if got, ok := c.built["k"]; !ok || got != 7 {
		t.Fatalf("cached = %d, %v", got, ok)
	}
}

func TestCachePrewarmOverlapsBuilds(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(4)
	var c Cache[int, int]
	release := make(chan struct{})
	var started atomic.Int64
	c.Prewarm([]int{1, 2, 3}, func(k int) (int, error) {
		started.Add(1)
		<-release
		return k * 10, nil
	})
	// All three builds must be in flight concurrently (none can finish
	// before release closes), proving Prewarm does not serialize.
	for started.Load() < 3 {
		runtime.Gosched()
	}
	close(release)
	for _, k := range []int{1, 2, 3} {
		v, err := c.Do(k, func() (int, error) { return -1, nil })
		if err != nil || v != k*10 {
			t.Fatalf("Do(%d) = %d, %v (want prewarmed %d)", k, v, err, k*10)
		}
	}
}

func TestCachePrewarmSerialIsNoOp(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(1)
	var c Cache[int, int]
	c.Prewarm([]int{1}, func(k int) (int, error) {
		t.Error("prewarm built under -parallel 1")
		return 0, nil
	})
	if _, ok := c.built[1]; ok {
		t.Fatal("value cached despite serial prewarm")
	}
}
