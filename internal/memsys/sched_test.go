package memsys

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/perf"
	"lrp/internal/persist"
)

// TestRunZeroPrograms pins the kernel's emptiest edge: a Run with no
// programs must return immediately with the machine time unchanged.
func TestRunZeroPrograms(t *testing.T) {
	s := newSys(t, 2, persist.LRP)
	s.RunOne(func(c *Ctx) { c.Work(100) })
	before := s.Time()
	if got := s.Run(nil); got != before {
		t.Fatalf("Run(nil) = %v, want %v", got, before)
	}
	if got := s.Run([]Program{}); got != before {
		t.Fatalf("Run(empty) = %v, want %v", got, before)
	}
}

// TestRunSingleThreadNeverParks pins the run-ahead fast path's best case:
// with no runner-up thread the horizon is infinite, so a single-program
// run performs every operation without one scheduler handoff beyond the
// initial grant.
func TestRunSingleThreadNeverParks(t *testing.T) {
	s := newSys(t, 4, persist.LRP)
	a := s.StaticAlloc(1)
	const ops = 500
	s.RunOne(func(c *Ctx) {
		for i := 0; i < ops; i++ {
			c.Store(a, uint64(i))
		}
	})
	grants, runAhead := s.SchedStats()
	if grants != 1 {
		t.Fatalf("grants = %d, want 1 (single thread must never park)", grants)
	}
	if runAhead != ops {
		t.Fatalf("runAhead = %d, want %d", runAhead, ops)
	}
}

// tidRecorder captures the thread-id sequence of the op stream.
type tidRecorder struct{ tids []int }

func (r *tidRecorder) RecordOp(tid int, work engine.Time, op isa.Op, val uint64, ok bool) {
	r.tids = append(r.tids, tid)
}
func (r *tidRecorder) RecordTick(tid int, work engine.Time) {}
func (r *tidRecorder) RecordSync()                          {}
func (r *tidRecorder) RecordDrain()                         {}
func (r *tidRecorder) RecordMark(id uint8)                  {}

// TestClockTieTidOrdering drives three threads in perfect clock lockstep
// (barriers under NOP cost exactly IssueCost for every thread), so every
// scheduling decision is a tie. Ties must resolve to the smaller thread
// id — the recorded op stream must be a strict round-robin — exactly as
// the historical linear scan resolved them.
func TestClockTieTidOrdering(t *testing.T) {
	rec := &tidRecorder{}
	cfg := TestConfig(3).WithMechanism(persist.NOP)
	cfg.Rec = rec
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 20
	prog := func(c *Ctx) {
		for i := 0; i < rounds; i++ {
			c.Barrier()
		}
	}
	s.Run([]Program{prog, prog, prog})
	if len(rec.tids) != 3*rounds {
		t.Fatalf("recorded %d ops, want %d", len(rec.tids), 3*rounds)
	}
	for i, tid := range rec.tids {
		if tid != i%3 {
			t.Fatalf("op %d on thread %d, want %d (tie must grant the smaller tid)", i, tid, i%3)
		}
	}
}

// issueRecorder reconstructs each operation's issue clock — the thread
// clock at its scheduling gate, i.e. after the explicit compute since the
// previous op but before the op's own cost — from the recorder stream,
// which fires at the perform point in exactly the kernel's global order.
type issueRecorder struct {
	s      *System
	prev   []engine.Time // per-thread clock after its previous record
	tids   []int
	clocks []engine.Time
}

func (r *issueRecorder) RecordOp(tid int, work engine.Time, op isa.Op, val uint64, ok bool) {
	r.tids = append(r.tids, tid)
	r.clocks = append(r.clocks, r.prev[tid]+work)
	r.prev[tid] = r.s.clocks[tid]
}
func (r *issueRecorder) RecordTick(tid int, work engine.Time) { r.prev[tid] += work }
func (r *issueRecorder) RecordSync()                          {}
func (r *issueRecorder) RecordDrain()                         {}
func (r *issueRecorder) RecordMark(id uint8)                  {}

// TestRunAheadPreservesVirtualTimeOrder is the kernel's core invariant as
// a property test: whatever the interleaving pressure, operations must
// issue in nondecreasing clock order, and within one clock instant in
// strictly increasing thread-id order. Randomized compute bursts push
// threads far past each other so both the run-ahead fast path and the
// park path are exercised (asserted via the scheduler counters).
func TestRunAheadPreservesVirtualTimeOrder(t *testing.T) {
	log := &issueRecorder{}
	cfg := TestConfig(4).WithMechanism(persist.LRP)
	cfg.Rec = log
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log.s = s
	log.prev = make([]engine.Time, 4)
	shared := s.StaticAlloc(4)
	progs := make([]Program, 4)
	for i := 0; i < 4; i++ {
		i := i
		progs[i] = func(c *Ctx) {
			r := engine.NewRand(uint64(i)*77 + 5)
			for n := 0; n < 200; n++ {
				c.Work(engine.Time(r.Intn(300)))
				switch r.Intn(3) {
				case 0:
					c.Store(shared+isa.Addr(r.Intn(4)*isa.WordSize), uint64(n))
				case 1:
					c.Load(shared + isa.Addr(r.Intn(4)*isa.WordSize))
				default:
					c.CAS(shared, uint64(n), uint64(n+1), isa.AcqRel)
				}
			}
		}
	}
	s.Run(progs)
	if len(log.tids) != 4*200 {
		t.Fatalf("logged %d issues, want %d", len(log.tids), 4*200)
	}
	for i := 1; i < len(log.tids); i++ {
		c0, c1 := log.clocks[i-1], log.clocks[i]
		if c1 < c0 {
			t.Fatalf("issue %d: clock went backwards %v -> %v", i, c0, c1)
		}
		if c1 == c0 && log.tids[i] <= log.tids[i-1] {
			t.Fatalf("issue %d: tie at %v granted tid %d after tid %d", i, c1, log.tids[i], log.tids[i-1])
		}
	}
	grants, runAhead := s.SchedStats()
	if runAhead == 0 {
		t.Fatal("no run-ahead fast-path admissions in a 4-thread random workload")
	}
	if grants < 4 {
		t.Fatalf("grants = %d: a contended workload must also park", grants)
	}
}

// TestSchedCounterIdentity pins the accounting identity the scheduler
// counters must satisfy: every memory operation either ran ahead or
// parked, and every park plus every program finish is one grant. So for a
// machine driven only by Run calls,
//
//	runAhead = ops - (grants - programsLaunched)
func TestSchedCounterIdentity(t *testing.T) {
	s := newSys(t, 2, persist.LRP)
	a := s.StaticAlloc(1)
	prog := func(c *Ctx) {
		for i := 0; i < 100; i++ {
			c.Work(10)
			c.Store(a, uint64(i))
		}
	}
	s.Run([]Program{prog, prog})
	s.Run([]Program{prog, prog})
	grants, runAhead := s.SchedStats()
	ops := s.Stats().Ops
	launched := uint64(4)
	if runAhead != ops-(grants-launched) {
		t.Fatalf("counter identity broken: runAhead %d, ops %d, grants %d, launched %d",
			runAhead, ops, grants, launched)
	}
}

// TestSchedulerPhaseAttribution pins the satellite fix for scheduler
// host-time accounting: the perf.PhaseScheduler region must cover the
// whole handoff — pick-next plus both coroutine switches — not just the
// pick-next scan. The region structure makes that checkable exactly: the
// kernel opens one region per Run call and one per park, so the region
// count must equal grants + 1, and the fast path must open none.
func TestSchedulerPhaseAttribution(t *testing.T) {
	p := perf.New(perf.Options{})
	cfg := TestConfig(2).WithMechanism(persist.LRP)
	cfg.Perf = p
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := s.StaticAlloc(1)
	prog := func(c *Ctx) {
		for i := 0; i < 50; i++ {
			c.Work(5)
			c.Store(a, uint64(i))
		}
	}
	s.Run([]Program{prog, prog})
	grants, _ := s.SchedStats()
	var schedRegions, schedNs int64
	for _, st := range p.Snapshot() {
		if st.Phase == perf.PhaseScheduler {
			schedRegions, schedNs = st.Count, st.Ns
		}
	}
	if want := int64(grants) + 1; schedRegions != want {
		t.Fatalf("scheduler regions = %d, want grants+1 = %d (handoff not inside the region?)",
			schedRegions, want)
	}
	if schedNs <= 0 {
		t.Fatalf("scheduler phase accumulated %dns over %d grants", schedNs, grants)
	}
}

// TestSchedulerGrantAllocs asserts the kernel's steady-state allocation
// budget: granting and parking reuse the leaderboard, the Ctx handles and
// the pooled coroutines, so a whole two-thread Run allocates nothing —
// not per operation, not per grant and not per thread launch.
func TestSchedulerGrantAllocs(t *testing.T) {
	cfg := TestConfig(2).WithMechanism(persist.NOP)
	// Isolate the kernel: HB stamp capture and NVM event logging allocate
	// per write by design and would drown the scheduler's budget.
	cfg.TrackHB = false
	cfg.NVM.LogEvents = false
	s := MustNew(cfg)
	a := s.StaticAlloc(1)
	prog := func(c *Ctx) {
		for i := 0; i < 500; i++ {
			c.Work(3)
			c.Store(a, uint64(i))
		}
	}
	progs := []Program{prog, prog}
	s.Run(progs) // warm the kernel's retained state
	allocs := testing.AllocsPerRun(5, func() {
		s.Run(progs)
	})
	// Measured 0: coroutines come from the pool. The small slack keeps
	// the bound robust while still failing on any per-Run coroutine or
	// channel construction, let alone per-op work (1000 ops/run).
	if allocs > 2 {
		t.Fatalf("Run allocated %.1f objects per call for 1000 ops; scheduler state is not being reused", allocs)
	}
}

// coroWorkload builds a 3-thread LRP machine whose programs contend on a
// few shared lines, so every Run both parks and runs ahead. Each call of
// the returned step runs one Run and folds the machine's time, stats and
// the values its programs loaded into a digest.
func coroWorkload(t *testing.T, seed uint64) (step func() uint64) {
	t.Helper()
	s := newSys(t, 3, persist.LRP)
	shared := s.StaticAlloc(4)
	var sum [3]uint64
	progs := make([]Program, 3)
	round := uint64(0)
	for i := range progs {
		progs[i] = func(c *Ctx) {
			r := engine.NewRand(seed*131 + round*7 + uint64(i))
			for n := 0; n < 150; n++ {
				c.Work(engine.Time(r.Intn(40)))
				a := shared + isa.Addr(r.Intn(4)*isa.WordSize)
				switch r.Intn(3) {
				case 0:
					c.StoreRel(a, uint64(n))
				case 1:
					sum[i] += c.LoadAcq(a)
				default:
					v, _ := c.CAS(a, uint64(n), uint64(n+i), isa.AcqRel)
					sum[i] += v
				}
			}
		}
	}
	return func() uint64 {
		tm := s.Run(progs)
		round++
		st := s.Stats()
		return uint64(tm)*31 + st.Ops*17 + st.Persists*13 + st.StallCycles + sum[0]*3 + sum[1]*5 + sum[2]*7
	}
}

// serialDigests runs a fresh coroWorkload machine for rounds Runs on the
// calling goroutine.
func serialDigests(t *testing.T, seed uint64, rounds int) []uint64 {
	step := coroWorkload(t, seed)
	out := make([]uint64, rounds)
	for i := range out {
		out[i] = step()
	}
	return out
}

var errInjected = errors.New("injected program failure")

// TestRunPanicReachesCaller pins failure propagation out of the kernel: a
// program that panics mid-run, while its sibling is parked, must surface
// in Run's caller as an ordinary recoverable panic carrying the program's
// own value, not kill the process from another goroutine.
func TestRunPanicReachesCaller(t *testing.T) {
	s := newSys(t, 2, persist.LRP)
	a := s.StaticAlloc(1)
	progs := []Program{
		func(c *Ctx) {
			for i := 0; i < 100; i++ {
				c.Work(3)
				c.Store(a, uint64(i))
			}
		},
		func(c *Ctx) {
			for i := 0; i < 20; i++ {
				c.Work(3)
				c.Store(a, uint64(i))
			}
			panic(errInjected)
		},
	}
	got := func() (v any) {
		defer func() { v = recover() }()
		s.Run(progs)
		return nil
	}()
	if got != errInjected {
		t.Fatalf("recovered %v from Run, want the program's panic value %v", got, errInjected)
	}
	if grants, _ := s.SchedStats(); grants < 3 {
		t.Fatalf("grants = %d: the panic did not happen mid-run with a parked sibling", grants)
	}
}

// TestRunGoexitDoesNotHang pins the other failure exit: runtime.Goexit in
// a program (what t.Fatal does inside one) must end Run's goroutine, not
// leave it waiting forever for a thread that will never finish.
func TestRunGoexitDoesNotHang(t *testing.T) {
	s := newSys(t, 2, persist.LRP)
	a := s.StaticAlloc(1)
	prog := func(c *Ctx) {
		for i := 0; i < 100; i++ {
			c.Work(3)
			c.Store(a, uint64(i))
			if c.ThreadID() == 1 && i == 20 {
				runtime.Goexit()
			}
		}
	}
	returned := make(chan bool, 1)
	go func() {
		ok := false
		defer func() { returned <- ok }()
		s.Run([]Program{prog, prog})
		ok = true
	}()
	select {
	case ok := <-returned:
		if ok {
			t.Fatal("Run returned normally although a program called runtime.Goexit")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run still blocked 10s after a program called runtime.Goexit")
	}
}

// TestCoroutinePoolReuse pins the process-wide coroutine pool against
// cross-machine leakage: two machines run alternately from different
// goroutines — and then concurrently — draw and return the same pooled
// coroutines, yet each machine's results must equal a serial run of its
// own. A machine built after a recovered program panic must also run
// correctly, so the pool never hands out a coroutine a failure killed.
func TestCoroutinePoolReuse(t *testing.T) {
	const rounds = 4
	wantA, wantB := serialDigests(t, 1, rounds), serialDigests(t, 2, rounds)
	check := func(what string, got, want []uint64) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: round %d digest %#x, want serial %#x", what, i, got[i], want[i])
			}
		}
	}

	// Alternately: every Run on a fresh goroutine, A and B interleaved.
	stepA, stepB := coroWorkload(t, 1), coroWorkload(t, 2)
	gotA, gotB := make([]uint64, rounds), make([]uint64, rounds)
	for i := 0; i < rounds; i++ {
		for _, run := range []func(){
			func() { gotA[i] = stepA() },
			func() { gotB[i] = stepB() },
		} {
			done := make(chan struct{})
			go func() { defer close(done); run() }()
			<-done
		}
	}
	check("alternating A", gotA, wantA)
	check("alternating B", gotB, wantB)

	// Concurrently: both machines at once on their own goroutines.
	stepA, stepB = coroWorkload(t, 1), coroWorkload(t, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range gotA {
			gotA[i] = stepA()
		}
	}()
	go func() {
		defer wg.Done()
		for i := range gotB {
			gotB[i] = stepB()
		}
	}()
	wg.Wait()
	check("concurrent A", gotA, wantA)
	check("concurrent B", gotB, wantB)

	// After a recovered panic.
	bad := newSys(t, 2, persist.LRP)
	a := bad.StaticAlloc(1)
	func() {
		defer func() {
			if v := recover(); v != errInjected {
				t.Fatalf("recovered %v, want %v", v, errInjected)
			}
		}()
		bad.Run([]Program{
			func(c *Ctx) {
				for i := 0; i < 50; i++ {
					c.Work(2)
					c.Store(a, uint64(i))
				}
			},
			func(c *Ctx) {
				c.Work(2)
				c.Store(a, 1)
				panic(errInjected)
			},
		})
	}()
	check("after a panic", serialDigests(t, 1, rounds), wantA)
}

// TestDroppedMachineIsCollectable pins the pool's lifetime rule: an idle
// pooled coroutine holds no Ctx, System or Program, so a machine that
// has run and is then dropped by its caller is garbage collected. The
// finalizer sits on the machine's recorder, which references nothing
// back, so it runs exactly when the machine has become unreachable.
func TestDroppedMachineIsCollectable(t *testing.T) {
	collected := make(chan struct{})
	func() {
		rec := &tidRecorder{}
		runtime.SetFinalizer(rec, func(*tidRecorder) { close(collected) })
		cfg := TestConfig(2).WithMechanism(persist.LRP)
		cfg.Rec = rec
		s := MustNew(cfg)
		a := s.StaticAlloc(1)
		prog := func(c *Ctx) {
			if c.sys != s {
				panic("program ran on another machine")
			}
			for i := 0; i < 50; i++ {
				c.Work(3)
				c.Store(a, uint64(i))
			}
		}
		s.Run([]Program{prog, prog})
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("machine still reachable after its caller dropped it: an idle pooled coroutine retains it")
}
