package memctl

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeSpillable frees a fixed amount per Spill call through its tracker.
type fakeSpillable struct {
	label   string
	tracker *Tracker
	bytes   int64 // atomic
	spills  int64 // atomic
}

func (f *fakeSpillable) SpillableBytes() int64 { return atomic.LoadInt64(&f.bytes) }

func (f *fakeSpillable) Spill() (int64, error) {
	freed := atomic.SwapInt64(&f.bytes, 0)
	if freed > 0 {
		atomic.AddInt64(&f.spills, 1)
		f.tracker.Release(f.label, freed)
		f.tracker.AddSpill(f.label, freed, 1)
	}
	return freed, nil
}

func (f *fakeSpillable) Label() string { return f.label }

func TestReserveReleasePeak(t *testing.T) {
	p := NewPool(0, "")
	tr := p.NewTracker("SELECT 1")
	if err := tr.Reserve("sort", 100); err != nil {
		t.Fatal(err)
	}
	if err := tr.Reserve("groupby", 50); err != nil {
		t.Fatal(err)
	}
	tr.Release("sort", 100)
	if err := tr.Reserve("groupby", 30); err != nil {
		t.Fatal(err)
	}
	if got := tr.Peak(); got != 150 {
		t.Fatalf("peak = %d, want 150", got)
	}
	st := tr.Stats()
	if st.Operators["groupby"].PeakBytes != 80 {
		t.Fatalf("groupby peak = %d, want 80", st.Operators["groupby"].PeakBytes)
	}
	tr.Close()
	if got := p.Used(); got != 0 {
		t.Fatalf("pool used after close = %d, want 0", got)
	}
	tr.Close() // idempotent
}

func TestReserveExceededWithoutSpillables(t *testing.T) {
	p := NewPool(1000, "")
	tr := p.NewTracker("SELECT big FROM t")
	if err := tr.Reserve("join", 900); err != nil {
		t.Fatal(err)
	}
	err := tr.Reserve("join", 200)
	if !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("err = %v, want ErrMemoryExceeded", err)
	}
	var me *MemoryExceededError
	if !errors.As(err, &me) {
		t.Fatalf("err %T is not *MemoryExceededError", err)
	}
	if me.Query != "SELECT big FROM t" || me.Operator != "join" || me.Limit != 1000 {
		t.Fatalf("error fields wrong: %+v", me)
	}
	if !strings.Contains(err.Error(), "SELECT big FROM t") {
		t.Fatalf("error text should carry the query: %v", err)
	}
	if me.Peak != 900 {
		t.Fatalf("peak = %d, want 900", me.Peak)
	}
}

func TestSpillPolicyLargestFirst(t *testing.T) {
	p := NewPool(1000, "")
	tr := p.NewTracker("q")
	small := &fakeSpillable{label: "small", tracker: tr}
	big := &fakeSpillable{label: "big", tracker: tr}
	tr.Register(small)
	tr.Register(big)

	if err := tr.Reserve("small", 300); err != nil {
		t.Fatal(err)
	}
	atomic.StoreInt64(&small.bytes, 300)
	if err := tr.Reserve("big", 600); err != nil {
		t.Fatal(err)
	}
	atomic.StoreInt64(&big.bytes, 600)

	// 900 used; reserving 500 must spill the largest consumer first, and
	// spilling big (600) alone suffices.
	if err := tr.Reserve("sort", 500); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&big.spills); got != 1 {
		t.Fatalf("big spilled %d times, want 1", got)
	}
	if got := atomic.LoadInt64(&small.spills); got != 0 {
		t.Fatalf("small spilled %d times, want 0", got)
	}
	st := tr.Stats()
	if st.SpilledBytes != 600 || st.SpillFiles != 1 {
		t.Fatalf("spilled = %d/%d files, want 600/1", st.SpilledBytes, st.SpillFiles)
	}
	if st.PeakBytes > 1000 {
		t.Fatalf("peak %d exceeds limit", st.PeakBytes)
	}
}

// TestSpillAcrossTrackers verifies the pool spills consumers of other
// queries sharing the engine budget.
func TestSpillAcrossTrackers(t *testing.T) {
	p := NewPool(1000, "")
	tr1 := p.NewTracker("q1")
	tr2 := p.NewTracker("q2")
	s1 := &fakeSpillable{label: "agg", tracker: tr1}
	tr1.Register(s1)
	if err := tr1.Reserve("agg", 800); err != nil {
		t.Fatal(err)
	}
	atomic.StoreInt64(&s1.bytes, 800)
	if err := tr2.Reserve("sort", 700); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&s1.spills) != 1 {
		t.Fatal("q2's reservation should have spilled q1's aggregation")
	}
}

// TestReserveExhaustsSpillablesThenFails: victims that free nothing are
// skipped, and the reservation fails once nothing can be freed.
func TestReserveExhaustsSpillablesThenFails(t *testing.T) {
	p := NewPool(100, "")
	tr := p.NewTracker("q")
	stuck := &stuckSpillable{} // claims bytes but frees nothing
	tr.Register(stuck)
	if err := tr.Reserve("op", 90); err != nil {
		t.Fatal(err)
	}
	if err := tr.Reserve("op", 50); !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("err = %v, want ErrMemoryExceeded", err)
	}
}

type stuckSpillable struct{}

func (s *stuckSpillable) SpillableBytes() int64 { return 10 }
func (s *stuckSpillable) Spill() (int64, error) { return 0, nil }
func (s *stuckSpillable) Label() string         { return "stuck" }

func TestUnlimitedPoolNeverSpills(t *testing.T) {
	p := NewPool(0, "")
	tr := p.NewTracker("q")
	s := &fakeSpillable{label: "agg", tracker: tr}
	tr.Register(s)
	atomic.StoreInt64(&s.bytes, 1<<40)
	if err := tr.Reserve("agg", 1<<40); err != nil {
		t.Fatal(err)
	}
	if err := tr.Reserve("agg", 1<<40); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&s.spills) != 0 {
		t.Fatal("unlimited pool must never spill")
	}
	if tr.Peak() != 2<<40 {
		t.Fatalf("peak = %d", tr.Peak())
	}
}

// closingSpillable is a victim whose owner closes its tracker in the gap
// between the pool picking it and its Spill releasing: Close has already
// returned the bytes, so the Release that follows must not return them again.
type closingSpillable struct{ fakeSpillable }

func (c *closingSpillable) Spill() (int64, error) {
	c.tracker.Close()
	return c.fakeSpillable.Spill()
}

func TestReleaseAfterCloseNotDoubleCounted(t *testing.T) {
	p := NewPool(8192, "")
	owner := p.NewTracker("q1")
	victim := &closingSpillable{fakeSpillable{label: "agg", tracker: owner}}
	owner.Register(victim)
	if err := owner.Reserve("agg", 8192); err != nil {
		t.Fatal(err)
	}
	atomic.StoreInt64(&victim.bytes, 8192)
	other := p.NewTracker("q2")
	if err := other.Reserve("sort", 4096); err != nil {
		t.Fatal(err)
	}
	if got := p.Used(); got != 4096 {
		t.Fatalf("pool used = %d, want 4096 (only q2's reservation)", got)
	}
	other.Close()
	if got := p.Used(); got != 0 {
		t.Fatalf("pool used = %d, want 0", got)
	}
}

// TestConcurrentReserveRelease exercises the pool under the race detector.
func TestConcurrentReserveRelease(t *testing.T) {
	p := NewPool(1<<20, "")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := p.NewTracker("q")
			defer tr.Close()
			s := &fakeSpillable{label: "agg", tracker: tr}
			tr.Register(s)
			for i := 0; i < 200; i++ {
				if err := tr.Reserve("agg", 4096); err != nil {
					return
				}
				atomic.AddInt64(&s.bytes, 4096)
			}
		}(g)
	}
	wg.Wait()
	if got := p.Used(); got != 0 {
		t.Fatalf("pool used after all trackers closed = %d, want 0", got)
	}
}
