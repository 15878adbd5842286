// Package wpool is the process-wide persistent worker pool shared by the
// tile-parallel frame codec and the experiment scheduler. It exists because
// both hot paths fan small index-addressed batches (tiles of a frame,
// cells of an experiment grid) across cores many times per second: spawning
// goroutines per batch would churn the scheduler and show up as allocation
// noise on paths the repo pins at zero allocs.
//
// The pool holds GOMAXPROCS-1 helper goroutines that park on a queue of
// open jobs. A Map submission opens its job for up to limit-1 helpers; the
// submitting goroutine always participates too, so completion never depends
// on helper availability — a fully busy pool just means the submitter does
// the work itself (and nested Maps degrade to inline loops instead of
// deadlocking). A submitter withdraws its job from the queue as soon as it
// has run out of indices, so a batch it finished alone leaves nothing behind
// that could keep a helper from the next batch.
//
// Determinism: Map(fn) runs fn(i) exactly once for every index, and callers
// write results to index-addressed slots, so the output of a Map is
// byte-identical whether zero or all helpers join. Which goroutine runs
// which index is the only thing that varies.
//
// The shared Default pool is created at package init, before any test or
// soak harness snapshots its goroutine-leak baseline, so its helpers are
// part of every baseline rather than a "leak".
package wpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed set of persistent helper goroutines. The zero value is
// unusable; use New or Default.
type Pool struct {
	helpers int

	// mu guards open and closed. Helpers park on work while no open job
	// wants one.
	mu     sync.Mutex
	work   *sync.Cond
	open   []*job // submitted jobs that still want helpers, oldest first
	closed bool
}

// job is one Map submission: an atomic index dispenser plus join
// bookkeeping. Helpers that take the job off the pool's queue claim indices
// until none remain or a participant panicked.
type job struct {
	fn   func(int)
	n    int64
	next atomic.Int64

	// want is how many more helpers the job takes (guarded by Pool.mu).
	want int

	// First panic wins; the others stop claiming indices.
	panicked atomic.Bool
	panicMu  sync.Mutex
	panicSet bool
	panicVal any

	// wg counts joined helpers. A helper joins under Pool.mu while the job
	// is queued, and the submitter dequeues the job under Pool.mu before
	// waiting, so wg.Wait cannot miss a late joiner.
	wg sync.WaitGroup
}

// run claims and executes indices until the job is exhausted (or a
// participant panicked). A panic in fn is recorded and re-raised by the
// submitter after every participant has stopped.
func (j *job) run() {
	defer func() {
		if p := recover(); p != nil {
			j.panicMu.Lock()
			if !j.panicSet {
				j.panicSet, j.panicVal = true, p
			}
			j.panicMu.Unlock()
			j.panicked.Store(true)
		}
	}()
	for !j.panicked.Load() {
		i := j.next.Add(1) - 1
		if i >= j.n {
			return
		}
		j.fn(int(i))
	}
}

// New returns a pool that runs batches across up to workers goroutines
// (workers-1 persistent helpers plus the submitter). workers <= 1 yields a
// helperless pool whose Maps run inline. Close releases the helpers; the
// Default pool is never closed.
func New(workers int) *Pool {
	helpers := workers - 1
	if helpers < 0 {
		helpers = 0
	}
	p := &Pool{helpers: helpers}
	p.work = sync.NewCond(&p.mu)
	for i := 0; i < helpers; i++ {
		go p.helper()
	}
	return p
}

// helper parks until some queued job wants a helper, joins it, and parks
// again once the job runs out of indices.
func (p *Pool) helper() {
	p.mu.Lock()
	for {
		for len(p.open) == 0 && !p.closed {
			p.work.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		j := p.open[0]
		if j.want--; j.want == 0 {
			p.dequeueLocked(0)
		}
		j.wg.Add(1)
		p.mu.Unlock()
		j.run()
		j.wg.Done()
		p.mu.Lock()
	}
}

// dequeueLocked removes open[i], keeping the queue's order and backing
// array.
func (p *Pool) dequeueLocked(i int) {
	n := len(p.open) - 1
	copy(p.open[i:], p.open[i+1:])
	p.open[n] = nil
	p.open = p.open[:n]
}

// Close stops the helpers once their current jobs finish. Only for
// privately-owned pools (tests, benchmarks); Map must not be in flight.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.work.Broadcast()
}

// Workers returns the maximum parallelism of the pool (helpers + the
// submitting goroutine).
func (p *Pool) Workers() int { return p.helpers + 1 }

// Map runs fn(i) exactly once for every i in [0, n), across at most limit
// goroutines (0 = the pool's full width). It returns when all indices have
// completed; a panic in fn propagates to the caller after every
// participant has stopped. The limit caps how many helpers are woken for
// this call; because callers write to index-addressed slots, results are
// identical at any limit.
func (p *Pool) Map(limit, n int, fn func(int)) {
	if n <= 0 {
		return
	}
	if limit <= 0 || limit > p.helpers+1 {
		limit = p.helpers + 1
	}
	if limit > n {
		limit = n
	}
	if limit == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	j := &job{fn: fn, n: int64(n)}
	p.submit(j, limit)
}

// submit opens j to limit-1 helpers, participates, then withdraws j from
// the queue and waits for joined helpers before re-raising any panic.
// Withdrawing is what keeps a finished job's unclaimed wakeups from
// crowding out the next one.
func (p *Pool) submit(j *job, limit int) {
	p.mu.Lock()
	j.want = limit - 1
	p.open = append(p.open, j)
	p.mu.Unlock()
	for i := 1; i < limit; i++ {
		p.work.Signal()
	}
	j.run()
	p.mu.Lock()
	for i, o := range p.open {
		if o == j {
			p.dequeueLocked(i)
			break
		}
	}
	p.mu.Unlock()
	j.wg.Wait()
	if j.panicSet {
		panic(j.panicVal)
	}
}

// Group is a reusable Map handle: it embeds the job bookkeeping so a caller
// that Maps repeatedly (an encoder, once per frame) allocates nothing in
// steady state. A Group serializes its own Maps — one at a time.
type Group struct {
	p *Pool
	j job
}

// NewGroup returns a Group over p (nil p = the Default pool).
func NewGroup(p *Pool) *Group {
	if p == nil {
		p = Default()
	}
	return &Group{p: p}
}

// Pool returns the pool the group submits to.
func (g *Group) Pool() *Pool { return g.p }

// Map is Pool.Map without the per-call job allocation. Not safe for
// concurrent calls on the same Group.
func (g *Group) Map(limit, n int, fn func(int)) {
	if n <= 0 {
		return
	}
	p := g.p
	if limit <= 0 || limit > p.helpers+1 {
		limit = p.helpers + 1
	}
	if limit > n {
		limit = n
	}
	if limit == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// No helper holds the job once the previous submit returned (it was
	// dequeued and every joiner waited out), so the reset needs no lock.
	j := &g.j
	j.fn, j.n = fn, int64(n)
	j.next.Store(0)
	j.panicked.Store(false)
	j.panicSet, j.panicVal = false, nil
	p.submit(j, limit)
}

// defaultPool is created at package init so every goroutine-leak baseline
// in the repo includes its helpers.
var defaultPool = New(runtime.GOMAXPROCS(0))

// Default returns the shared process-wide pool, sized to GOMAXPROCS at
// startup.
func Default() *Pool { return defaultPool }
