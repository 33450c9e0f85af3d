package exec

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// indexed is the result type the orderedRun tests schedule: the index a
// worker claimed, and optionally an error.
type indexed struct {
	i   int
	err error
}

// waitGoroutines polls until the goroutine count is back at (or below) the
// baseline; close() has already waited for the workers, so this only absorbs
// the runtime retiring exited goroutines.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, baseline %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

func TestOrderedRunEmptyAndClamp(t *testing.T) {
	r := newOrderedRun[indexed](0, 4)
	if r.workers != 0 {
		t.Fatalf("n=0: workers = %d, want 0", r.workers)
	}
	r.start(func(w, i int) indexed {
		t.Errorf("n=0: work called for index %d", i)
		return indexed{}
	})
	if _, ok := r.recv(); ok {
		t.Fatal("n=0: recv delivered a result")
	}
	r.close()

	r = newOrderedRun[indexed](3, 8)
	if r.workers != 3 {
		t.Fatalf("workers = %d, want clamp to n = 3", r.workers)
	}
	var maxW atomic.Int64
	r.start(func(w, i int) indexed {
		for {
			cur := maxW.Load()
			if int64(w) <= cur || maxW.CompareAndSwap(cur, int64(w)) {
				break
			}
		}
		return indexed{i: i}
	})
	for want := 0; want < 3; want++ {
		got, ok := r.recv()
		if !ok || got.i != want {
			t.Fatalf("recv %d = (%+v, %v)", want, got, ok)
		}
	}
	if _, ok := r.recv(); ok {
		t.Fatal("recv past n delivered a result")
	}
	r.close()
	if maxW.Load() >= 3 {
		t.Fatalf("worker index %d used, want < 3", maxW.Load())
	}
}

// TestOrderedRunInOrderDelivery makes the workers finish in reverse claim
// order (index 0 is released last) and requires in-order receipt anyway,
// with an error result delivered at its own position.
func TestOrderedRunInOrderDelivery(t *testing.T) {
	const n, workers = 4, 4
	boom := errors.New("boom")
	r := newOrderedRun[indexed](n, workers)
	gates := make([]chan struct{}, n)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	var finished []int
	var mu sync.Mutex
	r.start(func(w, i int) indexed {
		<-gates[i]
		mu.Lock()
		finished = append(finished, i)
		mu.Unlock()
		if i == 2 {
			return indexed{i: i, err: boom}
		}
		return indexed{i: i}
	})
	// Index i+1 is released, and observed finished, before index i.
	for i := n - 1; i >= 0; i-- {
		close(gates[i])
		for {
			mu.Lock()
			done := len(finished) == n-i
			mu.Unlock()
			if done {
				break
			}
			runtime.Gosched()
		}
	}
	for want := 0; want < n; want++ {
		got, ok := r.recv()
		if !ok || got.i != want {
			t.Fatalf("recv %d = (%+v, %v), finish order %v", want, got, ok, finished)
		}
		if (got.err != nil) != (want == 2) {
			t.Fatalf("position %d: err = %v", want, got.err)
		}
	}
	r.close()
	if finished[0] != n-1 || finished[n-1] != 0 {
		t.Fatalf("finish order %v is not reversed — the test did not exercise reordering", finished)
	}
}

// TestOrderedRunBoundsUnconsumed lets the workers run as far ahead of a
// stalled consumer as the token semaphore allows: never more than 2·workers
// results may be claimed beyond what has been received.
func TestOrderedRunBoundsUnconsumed(t *testing.T) {
	const n, workers = 64, 3
	r := newOrderedRun[indexed](n, workers)
	var claimed atomic.Int64
	r.start(func(w, i int) indexed {
		claimed.Add(1)
		return indexed{i: i}
	})
	for received := 0; received < n; received++ {
		// Wait for the producers to saturate the bound (or finish the tail),
		// then check it was never exceeded.
		want := int64(min(received+2*workers, n))
		deadline := time.Now().Add(5 * time.Second)
		for claimed.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("after %d receipts only %d claimed, want %d", received, claimed.Load(), want)
			}
			runtime.Gosched()
		}
		// Give a worker that wrongly holds a surplus token time to use it.
		for k := 0; k < 100; k++ {
			runtime.Gosched()
		}
		if got := claimed.Load(); got > want {
			t.Fatalf("after %d receipts %d results were produced, bound is %d", received, got, want)
		}
		if got, ok := r.recv(); !ok || got.i != received {
			t.Fatalf("recv %d = (%+v, %v)", received, got, ok)
		}
	}
	r.close()
}

func TestOrderedRunCloseIdempotent(t *testing.T) {
	base := runtime.NumGoroutine()
	r := newOrderedRun[indexed](5, 2)
	r.close() // before start: no-op
	r.close()
	r.start(func(w, i int) indexed { return indexed{i: i} })
	if got, ok := r.recv(); !ok || got.i != 0 {
		t.Fatalf("recv after early close = (%+v, %v)", got, ok)
	}
	r.close()
	r.close()
	waitGoroutines(t, base)
}

// TestOrderedRunCloseWithConsumerGone abandons the run mid-stream: every
// index a worker had claimed still runs to completion (its 1-slot channel
// never blocks the send), close returns only once they have, nothing new is
// claimed afterwards, and no goroutine is left behind.
func TestOrderedRunCloseWithConsumerGone(t *testing.T) {
	base := runtime.NumGoroutine()
	const n, workers = 100, 4
	r := newOrderedRun[indexed](n, workers)
	release := make(chan struct{})
	var started, finished atomic.Int64
	r.start(func(w, i int) indexed {
		started.Add(1)
		if i >= 1 {
			<-release
		}
		finished.Add(1)
		return indexed{i: i}
	})
	if got, ok := r.recv(); !ok || got.i != 0 {
		t.Fatalf("recv 0 = (%+v, %v)", got, ok)
	}
	// The consumer stops here. Wait until every worker is parked inside a
	// claimed morsel, then close concurrently with releasing them.
	for started.Load() < 1+workers {
		runtime.Gosched()
	}
	closed := make(chan struct{})
	go func() {
		r.close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("close returned while claimed morsels were still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	if s, f := started.Load(), finished.Load(); s != f {
		t.Fatalf("close returned with %d of %d claimed morsels unfinished", s-f, s)
	}
	after := started.Load()
	if after > int64(1+2*workers) {
		t.Fatalf("%d morsels claimed, bound is %d", after, 1+2*workers)
	}
	for k := 0; k < 100; k++ {
		runtime.Gosched()
	}
	if got := started.Load(); got != after {
		t.Fatalf("morsels claimed after close returned: %d -> %d", after, got)
	}
	waitGoroutines(t, base)
}
