//go:build go1.23

// The kernel pools runtime coroutines through iter.Pull, which needs
// go1.23; the constraint raises this file's language version while the
// module stays at go 1.22.

package memsys

import (
	"fmt"
	"iter"
	"sync"

	"lrp/internal/engine"
	"lrp/internal/perf"
)

// sched is the event-driven scheduling kernel's hot state. Thread clocks
// themselves live in System.clocks (a dense struct-of-arrays slice — the
// protocol reads and writes them on every operation); sched holds the
// grant machinery built over them: the leaderboard of parked threads, the
// granted thread's run-ahead horizon, and the per-thread Ctx handles, all
// retained across Run calls so steady-state grants allocate nothing.
//
// Run drives the threads as runtime coroutines: it pops the next winner
// off the leaderboard and resumes that thread's coroutine, which runs
// until its horizon check fails, re-enrolls itself and yields back to
// Run. A grant therefore costs two coroutine switches and never enters
// the Go scheduler. A thread that finishes does not re-enroll — "done"
// is encoded structurally by absence from the leaderboard rather than by
// a flag — so Run stops when the leaderboard is empty.
type sched struct {
	// lb indexes the clocks of parked-but-live threads; the granted
	// thread is not enrolled while it runs.
	lb engine.Leaderboard

	// horizon/horizonTid are the leaderboard minimum at grant time: the
	// runner-up thread's (clock, tid). The granted thread may keep
	// executing operations without a handoff while its own (clock, tid)
	// orders strictly before the horizon — the scheduler, rerun, would
	// only pick it again. horizon is Infinity when no other thread is
	// live (single-thread runs never park until they finish).
	horizon    engine.Time
	horizonTid int

	// ctxs are the per-thread handles, created once per machine and
	// reused by every Run call.
	ctxs []*Ctx

	// grants counts thread grants (one coroutine resume each); runAhead
	// counts operations admitted on the fast path with no handoff at
	// all. Host-side counters only — they exist for tests and the bench
	// harness and never influence simulated time.
	grants   uint64
	runAhead uint64
}

// ensure sizes the kernel for n threads, building the Ctx handles on
// first use.
func (k *sched) ensure(s *System, n int) {
	if len(k.ctxs) == n {
		return
	}
	k.ctxs = make([]*Ctx, n)
	for i := range k.ctxs {
		k.ctxs[i] = &Ctx{sys: s, tid: i}
	}
}

// grantNext pops the next (clock, tid) minimum off the leaderboard,
// publishes the new runner-up horizon and returns the winner. The caller
// must have ensured the leaderboard is non-empty.
func (k *sched) grantNext() int {
	tid, _ := k.lb.PopMin()
	if htid, hclock, ok := k.lb.Peek(); ok {
		k.horizon, k.horizonTid = hclock, htid
	} else {
		k.horizon, k.horizonTid = engine.Infinity, -1
	}
	k.grants++
	return tid
}

// SchedStats reports the kernel's host-side scheduling counters since the
// machine was built: grants is the number of thread grants (each one a
// coroutine resume from Run's loop and the yield back), runAhead the
// number of memory operations admitted on the fast path without any
// handoff.
func (s *System) SchedStats() (grants, runAhead uint64) {
	return s.sched.grants, s.sched.runAhead
}

// Run executes one program per hardware thread, interleaving their memory
// operations deterministically in virtual-time order (ties broken by
// thread id). It returns the execution time: the maximum thread clock.
// Run may be called multiple times; machine state persists between calls,
// which is how workloads separate their warm-up fill from the measured
// window.
//
// The kernel is event-driven rather than grant-per-op: a grant publishes
// the runner-up's (clock, tid) as its horizon, and the granted thread
// then executes operations on its own coroutine until its next operation
// would cross the horizon — Ctx.handoff's fast path is a pair of
// comparisons, not a switch. Because every operation still checks the
// horizon *before* performing, operations execute in exactly the global
// (clock, tid) order the historical pick-one-op-per-grant scan produced;
// only the number (and cost) of switches changes.
//
// Programs run on pooled coroutines, not on Run's goroutine, but a
// program's failure reaches Run's caller: a panic is re-raised from Run
// with the program's panic value, and a runtime.Goexit ends Run's
// goroutine. The other threads of that Run stay suspended, and the
// machine must not be run again.
func (s *System) Run(progs []Program) engine.Time {
	if len(progs) > len(s.threads) {
		panic(fmt.Sprintf("memsys: %d programs for %d cores", len(progs), len(s.threads)))
	}
	n := len(progs)
	if n == 0 {
		s.flushRecWork()
		return s.Time()
	}
	k := &s.sched
	k.ensure(s, len(s.threads))
	k.lb.Reset(len(s.threads))
	for i := 0; i < n; i++ {
		k.ctxs[i].co = nil
		k.lb.Push(i, s.clocks[i])
	}
	// The scheduler phase region is open exactly while the kernel owns
	// execution: Run opens it for the first grant, each granted thread
	// closes it when its coroutine resumes and reopens it when it parks or
	// finishes. Grant cost — the leaderboard pick and both coroutine
	// switches — is therefore attributed to perf.PhaseScheduler, the
	// run-ahead fast path costs no region at all, and the closing End
	// restores pprof labels on the goroutine that runs next.
	if s.perf != nil {
		s.perf.Start(perf.PhaseScheduler)
	}
	for k.lb.Len() > 0 {
		c := k.ctxs[k.grantNext()]
		if c.co == nil {
			// First grant: bind a pooled coroutine to the program.
			c.co = getCoro()
			c.co.ctx, c.co.prog = c, progs[c.tid]
		}
		if finished, _ := c.co.next(); finished {
			putCoro(c.co)
			c.co = nil
		}
	}
	if s.perf != nil {
		s.perf.End()
	}
	// Trailing compute after a thread's last operation still moves the
	// machine time; hand it to the recorder so replay reproduces it.
	s.flushRecWork()
	return s.Time()
}

// coro is a pooled runtime coroutine that runs simulated-thread programs,
// one per binding. next resumes it: it reports false when the thread
// parked in Ctx.handoff and true when the program returned. A program's
// panic or runtime.Goexit propagates out of next to Run's goroutine.
type coro struct {
	next  func() (finished, ok bool)
	yield func(finished bool) bool

	// The binding, set by Run before the first resume and cleared by the
	// coroutine as soon as it has read it, so an idle coroutine in the
	// pool holds no Ctx, System or Program.
	ctx  *Ctx
	prog Program
}

// coroPool holds idle coroutines process-wide, so iter.Pull's per-call
// allocations are paid once per coroutine rather than once per thread
// per Run. It grows to the peak number of simulated threads running at
// once across all machines. It is not a sync.Pool: a coroutine the
// collector dropped from one would leave its suspended goroutine behind
// for good.
var coroPool struct {
	mu   sync.Mutex
	free []*coro
}

// getCoro takes an idle coroutine from the pool, creating one if the pool
// is empty.
func getCoro() *coro {
	coroPool.mu.Lock()
	if n := len(coroPool.free); n > 0 {
		co := coroPool.free[n-1]
		coroPool.free[n-1] = nil
		coroPool.free = coroPool.free[:n-1]
		coroPool.mu.Unlock()
		return co
	}
	coroPool.mu.Unlock()
	co := new(coro)
	co.next, _ = iter.Pull(co.loop)
	return co
}

// putCoro returns a coroutine whose program has finished to the pool. A
// coroutine whose program panicked or exited is dead and never returned.
func putCoro(co *coro) {
	coroPool.mu.Lock()
	coroPool.free = append(coroPool.free, co)
	coroPool.mu.Unlock()
}

// loop is the body of every pooled coroutine: run the bound program on
// the bound Ctx, then yield true to Run and wait, idle, for the next
// binding.
func (co *coro) loop(yield func(bool) bool) {
	co.yield = yield
	for {
		c, p := co.ctx, co.prog
		co.ctx, co.prog = nil, nil
		s := c.sys
		if s.perf != nil {
			s.perf.End()
		}
		p(c)
		if s.perf != nil {
			s.perf.Start(perf.PhaseScheduler)
		}
		if !yield(true) {
			return
		}
	}
}

// RunOne is a convenience wrapper running a single program on thread 0.
func (s *System) RunOne(p Program) engine.Time { return s.Run([]Program{p}) }
