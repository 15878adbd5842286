package wpool

import (
	"sync/atomic"
	"testing"
	"time"

	"odr/internal/testutil"
)

func TestMapRunsEveryIndexOnce(t *testing.T) {
	p := New(4)
	defer p.Close()
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		counts := make([]int32, n)
		p.Map(0, n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, c)
			}
		}
	}
}

func TestMapIndexAddressedResultsMatchSequential(t *testing.T) {
	p := New(8)
	defer p.Close()
	const n = 512
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	got := make([]int, n)
	p.Map(0, n, func(i int) { got[i] = i * i })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("index %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestMapConcurrencyBoundedByPoolWidth(t *testing.T) {
	p := New(3)
	defer p.Close()
	var cur, peak atomic.Int32
	p.Map(0, 64, func(i int) {
		c := cur.Add(1)
		for {
			m := peak.Load()
			if c <= m || peak.CompareAndSwap(m, c) {
				break
			}
		}
		for j := 0; j < 1000; j++ {
			_ = j * j // hold the slot briefly so overlap is observable
		}
		cur.Add(-1)
	})
	if got := peak.Load(); got > 3 {
		t.Fatalf("peak concurrency %d exceeds pool width 3", got)
	}
}

func TestMapPanicPropagates(t *testing.T) {
	p := New(4)
	defer p.Close()
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	p.Map(0, 100, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
	t.Fatal("Map returned without panicking")
}

func TestNestedMapDoesNotDeadlock(t *testing.T) {
	p := New(2)
	defer p.Close()
	var total atomic.Int64
	p.Map(0, 8, func(i int) {
		p.Map(0, 8, func(j int) { total.Add(1) })
	})
	if total.Load() != 64 {
		t.Fatalf("nested maps ran %d inner calls, want 64", total.Load())
	}
}

func TestGroupReuse(t *testing.T) {
	p := New(4)
	defer p.Close()
	g := NewGroup(p)
	for round := 0; round < 50; round++ {
		counts := make([]int32, 33)
		g.Map(0, len(counts), func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("round %d: index %d ran %d times", round, i, c)
			}
		}
	}
}

var sink atomic.Int64

func groupTask(i int) { sink.Add(int64(i)) }

func TestGroupSteadyStateAllocs(t *testing.T) {
	p := New(4)
	defer p.Close()
	g := NewGroup(p)
	g.Map(0, 16, groupTask) // warm up
	allocs := testing.AllocsPerRun(100, func() { g.Map(0, 16, groupTask) })
	if allocs > 0 {
		t.Errorf("Group.Map allocates %.1f objects/call in steady state, want 0", allocs)
	}
}

func TestCloseReleasesHelpers(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	p := New(8)
	p.Map(0, 100, func(i int) {})
	p.Close()
}

func TestDefaultPoolExists(t *testing.T) {
	var n atomic.Int32
	Default().Map(0, 10, func(i int) { n.Add(1) })
	if n.Load() != 10 {
		t.Fatalf("default pool ran %d of 10 indices", n.Load())
	}
}

// TestStaleWakeupDoesNotStarveNextBatch pins that a batch its submitter
// finished alone leaves nothing behind that keeps a helper from the next
// batch. The pool's one helper is held busy while batch B runs on its
// submitter alone; batch C is submitted while the helper is still busy.
// Once the helper frees up it must join C, whose two indices each wait for
// the other: a pool that parked the helper behind B's unclaimed wakeup
// leaves C's first index waiting out its deadline.
func TestStaleWakeupDoesNotStarveNextBatch(t *testing.T) {
	p := New(2)
	defer p.Close()

	// Batch A holds its submitter and the helper until release.
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	doneA := make(chan struct{})
	go func() {
		defer close(doneA)
		p.Map(0, 2, func(int) {
			entered <- struct{}{}
			<-release
		})
	}()
	<-entered
	<-entered

	// Batch B: its helper wakeup goes unclaimed while the helper is busy.
	p.Map(0, 2, func(int) {})

	// Batch C: a 2-index barrier with a deadline.
	var arrived atomic.Int32
	met := make(chan bool, 2)
	started := make(chan struct{})
	doneC := make(chan struct{})
	go func() {
		defer close(doneC)
		p.Map(0, 2, func(int) {
			if arrived.Add(1) == 1 {
				close(started)
			}
			deadline := time.Now().Add(2 * time.Second)
			for arrived.Load() < 2 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			met <- arrived.Load() == 2
		})
	}()
	<-started
	close(release)
	<-doneA
	<-doneC
	if !<-met || !<-met {
		t.Fatal("batch C ran on its submitter alone: the freed helper never joined it")
	}
}
