package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"lrp"
	"lrp/internal/dlin"
	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/memsys"
	"lrp/internal/mm"
	"lrp/internal/model"
	"lrp/internal/nvm"
)

// runner is one workload: a set-up that builds its inputs from the seed,
// a timed step, and a traced run that attributes the step's cost to
// layers.
type runner interface {
	setup() error
	step(c *checks) stepOut
	traced(t *tracer, c *checks) tracedOut
}

// stepOut is what one timed step produced.
type stepOut struct {
	// fp is every simulated result of the step; it must repeat exactly.
	fp string
	// simOps is the simulated memory operations the step covered and
	// boundaries its crash boundaries (line persists for workloads that
	// sweep none: each is an instant the durable image changes).
	simOps, boundaries uint64
	// layer holds simulated per-layer counters.
	layer map[string]float64
}

// tracedOut is what a traced run measured.
type tracedOut struct {
	vals map[string]float64
	// parts splits the time of every layerSplit span across layers.
	parts map[string]float64
	// step is the traced duration of the timed step (or of the calls
	// that replicate it), for trace_overhead.
	step float64
}

// checks counts correctness checks; a failure is reported on stderr and
// counted, never fatal, so error_rate sees every one.
type checks struct{ attempted, failed int }

func (c *checks) expect(ok bool, format string, args ...any) bool {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "lrpperf: check failed: "+format+"\n", args...)
	}
	return ok
}

func (c *checks) noErr(err error, what string) bool {
	return c.expect(err == nil, "%s: %v", what, err)
}

type workloadDef struct {
	name, why string
	new       func(seed uint64) runner
}

// The workloads, with their full sizes. Simulated machines have 16 cores
// (8 threads each) so one step fits a ten-second run several times over.
var workloads = []workloadDef{
	{"live-kv", "only workload running the coroutine scheduler and structure code; zipfian kv reads beside hot-key writes under LRP",
		func(seed uint64) runner { return newLiveKV(seed, 16384, 3000) }},
	{"replay-hashmap", "trace-driven method: one NOP hashmap trace replayed under all 7 mechanisms; no scheduler, so only decode, protocol and mechanism cost",
		func(seed uint64) runner { return newReplay(seed, 16384, 1000) }},
	{"sweep-hashmap", "serial crash sweeps of three LRP hashmap runs with recovery walks and dlin checks at every boundary; runs no simulation",
		func(seed uint64) runner { return newSweeps(seed, lrp.LRP, sweepParts, 512, 40) }},
}

func machineConfig(k lrp.Mechanism) lrp.Config {
	cfg := lrp.DefaultConfig().WithMechanism(k)
	cfg.Cores = 16
	return cfg
}

// fingerprint renders every simulated statistic of a finished machine.
func fingerprint(m *lrp.Machine) string {
	g, ra := m.SchedStats()
	return fmt.Sprintf("%+v %+v t=%d grants=%d runahead=%d", m.Stats(), m.NVM().Stats(), m.Time(), g, ra)
}

// machineLayers reads a finished machine's per-layer counters.
func machineLayers(m *lrp.Machine) map[string]float64 {
	st := m.Stats()
	g, ra := m.SchedStats()
	return map[string]float64{
		"engine.grants":          float64(g),
		"engine.runahead_ops":    float64(ra),
		"cache.writebacks":       float64(st.Writebacks),
		"cache.downgrades":       float64(st.Downgrades),
		"mech.persists":          float64(st.Persists),
		"mech.critical_persists": float64(st.CriticalPersists),
		"mech.stall_cycles":      float64(st.StallCycles),
		"mech.engine_scans":      float64(st.EngineScans),
		"nvm.reads":              float64(m.NVM().Stats().Reads),
		"memsys.sim_ops":         float64(st.Ops),
		"memsys.sim_cycles":      float64(m.Time()),
	}
}

// timed runs f inside a span after a collection, so garbage left by the
// previous call is not collected on this call's clock.
func timed(t *tracer, name, layer string, f func()) int {
	runtime.GC()
	id := t.begin(name, layer)
	f()
	t.end(id)
	return id
}

// --- live-kv ----------------------------------------------------------------

type liveKV struct {
	cfg  lrp.Config
	spec lrp.Spec
	fp   string
}

func newLiveKV(seed uint64, keys, ops int) *liveKV {
	return &liveKV{
		cfg: machineConfig(lrp.LRP),
		spec: lrp.Spec{Structure: "kv", Threads: 8, InitialSize: keys, OpsPerThread: ops, Seed: seed,
			KV: lrp.KVParams{Tenants: 4, Skew: "zipfian", ThetaMilli: 990}},
	}
}

// The spec is the whole input; RunWorkload builds the machine itself.
func (l *liveKV) setup() error { return nil }

func (l *liveKV) step(c *checks) stepOut {
	_, m, err := lrp.RunWorkload(l.cfg, l.spec)
	if !c.noErr(err, "live-kv run") {
		return stepOut{}
	}
	l.fp = fingerprint(m)
	st := m.Stats()
	return stepOut{fp: l.fp, simOps: st.Ops, boundaries: st.Persists, layer: machineLayers(m)}
}

// markRecorder times the window marks and ignores everything else.
type markRecorder struct{ start, end time.Time }

func (r *markRecorder) RecordOp(int, engine.Time, isa.Op, uint64, bool) {}
func (r *markRecorder) RecordTick(int, engine.Time)                     {}
func (r *markRecorder) RecordSync()                                     {}
func (r *markRecorder) RecordDrain()                                    {}
func (r *markRecorder) RecordMark(id uint8) {
	switch id {
	case memsys.MarkWindowStart:
		r.start = time.Now()
	case memsys.MarkWindowEnd:
		r.end = time.Now()
	}
}

// traced times the live run with only its window marks recorded, then
// records the same run's trace and replays it: decode alone, decode plus
// protocol (NOP), and decode plus protocol plus mechanism (LRP).
func (l *liveKV) traced(t *tracer, c *checks) tracedOut {
	marks := &markRecorder{}
	cfg := l.cfg
	cfg.Rec = marks
	var fp string
	live := timed(t, "workload.live", layerSplit, func() {
		_, m, err := lrp.RunWorkload(cfg, l.spec)
		if c.noErr(err, "live-kv marked run") {
			fp = fingerprint(m)
		}
	})
	c.expect(fp == l.fp, "live-kv: the mark recorder changed simulated results")
	liveStart := t.epoch.Add(time.Duration(t.spans[live-1].Start))
	t.add("workload.fill", layerSplit, live, liveStart, marks.start)
	t.add("workload.window", layerSplit, live, marks.start, marks.end)

	var buf bytes.Buffer
	var sum lrp.TraceSummary
	rec := timed(t, "trace.record", layerSplit, func() {
		var m *lrp.Machine
		var err error
		_, m, sum, err = lrp.RecordTrace(l.cfg, l.spec, &buf)
		if c.noErr(err, "live-kv record") {
			c.expect(fingerprint(m) == l.fp, "live-kv: recording changed simulated results")
		}
	})
	d := replayRounds(t, c, buf.Bytes(), sum.Checksum, lrp.LRP, []lrp.Mechanism{lrp.LRP, lrp.NOP})

	L, R := t.secs(live), t.secs(rec)
	lrpS, lrpCycles := d.of(lrp.LRP)
	nopS, nopCycles := d.of(lrp.NOP)
	F := L - (lrpS - d.decode)
	P := nopS - d.decode
	M := lrpS - nopS
	E := R - L
	trace, memsys, mech := d.split()
	return tracedOut{
		vals: map[string]float64{
			"workload.fill_s":       marks.start.Sub(liveStart).Seconds(),
			"workload.window_s":     marks.end.Sub(marks.start).Seconds(),
			"workload.live_s":       L,
			"engine.frontend_s":     F,
			"memsys.protocol_s":     P,
			"mech.persist_s":        M,
			"trace.decode_s":        d.decode,
			"trace.record_s":        R,
			"trace.encode_s":        E,
			"replay.LRP_s":          lrpS,
			"replay.NOP_s":          nopS,
			"memsys.sim_cycles.LRP": lrpCycles,
			"memsys.sim_cycles.NOP": nopCycles,
		},
		// live = F+P+M and record = live+E; the replay rounds split as
		// timings.split says.
		parts: map[string]float64{
			"engine+workload": 2 * F,
			"memsys":          2*P + memsys,
			"mech":            2*M + mech,
			"trace":           E + trace,
			"noise":           d.excess,
		},
		step: L,
	}
}

// rounds is how many times the differential calls repeat; each call's
// minimum is its estimate, since host noise only adds time.
const rounds = 5

// timings are the differential calls' estimates.
type timings struct {
	mechs  []lrp.Mechanism
	decode float64 // minimum seconds of a decode
	// replay and cycles hold, per mechanism of mechs, the minimum seconds
	// of a replay and its simulated time.
	replay, cycles []float64
	// perRound is the mean seconds one round's replays took together.
	perRound float64
	// excess is how much longer all the calls took than rounds times
	// their minimums.
	excess float64
}

// of returns mechanism k's replay seconds and simulated cycles.
func (d *timings) of(k lrp.Mechanism) (secs, cycles float64) {
	for i, m := range d.mechs {
		if m == k {
			return d.replay[i], d.cycles[i]
		}
	}
	panic("lrpperf: mechanism " + k.String() + " was not replayed")
}

// split attributes the minimums of all rounds' calls to layers: a decode
// is D, and the replay under k is D + P + M_k, where the protocol P is
// the NOP replay's excess over the decode and M_NOP = 0. The mechanisms
// must include NOP.
func (d *timings) split() (trace, memsys, mech float64) {
	nop, _ := d.of(lrp.NOP)
	P := nop - d.decode
	n := float64(len(d.mechs))
	trace = rounds * (1 + n) * d.decode
	memsys = rounds * n * P
	for _, s := range d.replay {
		mech += rounds * (s - nop)
	}
	return trace, memsys, mech
}

// replayRounds times ReadTraceInfo and the replays of one trace, recorded
// under recorded, under each of mechs, interleaved over rounds rounds.
// Every round must reproduce the first round's simulated time.
func replayRounds(t *tracer, c *checks, raw []byte, checksum uint32, recorded lrp.Mechanism, mechs []lrp.Mechanism) timings {
	d := timings{
		mechs:  mechs,
		decode: math.Inf(1),
		replay: make([]float64, len(mechs)),
		cycles: make([]float64, len(mechs)),
	}
	for i := range d.replay {
		d.replay[i] = math.Inf(1)
	}
	var total, replays float64
	for round := 0; round < rounds; round++ {
		dec := timed(t, "trace.decode", layerSplit, func() {
			in, err := lrp.ReadTraceInfo(bytes.NewReader(raw))
			if c.noErr(err, "decode") {
				c.expect(in.Checksum == checksum, "decode: checksum %08x, recorded %08x", in.Checksum, checksum)
			}
		})
		d.decode = math.Min(d.decode, t.secs(dec))
		total += t.secs(dec)
		// The order rotates each round: the call right after the decode
		// runs measurably slower, and no mechanism may always take it.
		for j := range mechs {
			i := (j + round) % len(mechs)
			k := mechs[i]
			var rp *lrp.Replayed
			id := timed(t, "replay."+k.String(), layerSplit, func() {
				rp = replayChecked(c, raw, k, recorded, checksum)
			})
			s := t.secs(id)
			total += s
			replays += s
			d.replay[i] = math.Min(d.replay[i], s)
			if rp == nil {
				continue
			}
			if round == 0 {
				d.cycles[i] = float64(rp.Time)
			} else {
				c.expect(float64(rp.Time) == d.cycles[i], "replay under %s: %d cycles, first round %g", k, rp.Time, d.cycles[i])
			}
		}
	}
	mins := d.decode
	for _, s := range d.replay {
		mins += s
	}
	d.excess = total - rounds*mins
	d.perRound = replays / rounds
	return d
}

// replayChecked replays raw under k. ReplayTrace verifies every load and
// CAS against the recording itself; the op-stream checksum must match
// too, and the replay under the recording's own mechanism must reproduce
// the recorded window exactly.
func replayChecked(c *checks, raw []byte, k, recorded lrp.Mechanism, checksum uint32) *lrp.Replayed {
	rp, err := lrp.ReplayTrace(bytes.NewReader(raw), lrp.ReplayOpts{Mechanism: k, MechanismSet: true})
	if !c.noErr(err, "replay under "+k.String()) {
		return nil
	}
	c.expect(rp.Checksum == checksum, "replay under %s: checksum %08x, recorded %08x", k, rp.Checksum, checksum)
	if k == recorded {
		c.noErr(rp.VerifyEmbedded(), "replay under the recorded mechanism reproduces the window")
	}
	return rp
}

// --- replay-hashmap ---------------------------------------------------------

type replay struct {
	cfg  lrp.Config
	spec lrp.Spec
	raw  []byte
	sum  lrp.TraceSummary
}

func newReplay(seed uint64, size, ops int) *replay {
	return &replay{
		cfg:  machineConfig(lrp.NOP),
		spec: lrp.Spec{Structure: "hashmap", Threads: 8, InitialSize: size, OpsPerThread: ops, Seed: seed},
	}
}

func (r *replay) setup() error {
	var buf bytes.Buffer
	_, _, _, _, sum, err := lrp.RecordTraceHist(r.cfg, r.spec, &buf)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	r.raw, r.sum = buf.Bytes(), sum
	return nil
}

// step replays the trace under every registered mechanism.
func (r *replay) step(c *checks) stepOut {
	out := stepOut{layer: map[string]float64{}}
	var fp bytes.Buffer
	var cycles uint64
	for _, k := range lrp.Mechanisms() {
		rp := replayChecked(c, r.raw, k, lrp.NOP, r.sum.Checksum)
		if rp == nil {
			continue
		}
		if k == lrp.LRP {
			// maprange:ok — keys copied into another map
			for name, v := range machineLayers(rp.Sys) {
				out.layer[name] = v
			}
		}
		fmt.Fprintf(&fp, "%s: %s\n", k, fingerprint(rp.Sys))
		out.simOps += rp.Ops
		out.boundaries += rp.Sys.Stats().Persists
		cycles += uint64(rp.Time)
		out.layer["memsys.sim_cycles."+k.String()] = float64(rp.Time)
	}
	out.fp = fp.String()
	out.layer["memsys.sim_ops"] = float64(out.simOps)
	out.layer["memsys.sim_cycles"] = float64(cycles)
	return out
}

// traced times a second recording of the same run, the live run alone
// (so encode = record - live), then decodes and the seven replays in
// interleaved rounds.
func (r *replay) traced(t *tracer, c *checks) tracedOut {
	var buf bytes.Buffer
	rec := timed(t, "trace.record", layerSplit, func() {
		_, _, _, _, sum, err := lrp.RecordTraceHist(r.cfg, r.spec, &buf)
		if c.noErr(err, "re-record") {
			c.expect(sum.Checksum == r.sum.Checksum, "re-record: checksum %08x, first %08x", sum.Checksum, r.sum.Checksum)
		}
	})
	live := timed(t, "workload.live", layerSplit, func() {
		_, _, _, _, err := lrp.RunRecoverableWorkloadHist(r.cfg, r.spec)
		c.noErr(err, "live run")
	})
	d := replayRounds(t, c, r.raw, r.sum.Checksum, lrp.NOP, lrp.Mechanisms())

	R, L := t.secs(rec), t.secs(live)
	lrpS, _ := d.of(lrp.LRP)
	nopS, _ := d.of(lrp.NOP)
	vals := map[string]float64{
		"trace.record_s":    R,
		"workload.live_s":   L,
		"trace.encode_s":    R - L,
		"trace.decode_s":    d.decode,
		"memsys.protocol_s": nopS - d.decode,
		"mech.persist_s":    lrpS - nopS,
	}
	for i, k := range d.mechs {
		vals["replay."+k.String()+"_s"] = d.replay[i]
	}
	// live = L and record = L+E; the replay rounds split as timings.split
	// says.
	trace, memsys, mech := d.split()
	return tracedOut{
		vals: vals,
		parts: map[string]float64{
			"live":   2 * L,
			"trace":  R - L + trace,
			"memsys": memsys,
			"mech":   mech,
			"noise":  d.excess,
		},
		// The replays without the collections timed forces between them,
		// as the untraced step runs them.
		step: d.perRound,
	}
}

// --- sweep-hashmap ----------------------------------------------------------

// sweepParts is how many independent runs the sweep workload records and
// sweeps per step. One 512-entry run's sweep cost moves by about 10%
// from seed to seed (boundary count and per-boundary cost both vary);
// sweeping several runs made from the one seed averages that out.
const sweepParts = 3

// sweeps is the sweep workload: the serial crash sweeps of its runs,
// one after another.
type sweeps struct{ runs []*sweep }

// newSweeps makes n runs and derives run i's seed as seed*n+i, so two
// seeds never share a run.
func newSweeps(seed uint64, k lrp.Mechanism, n, size, ops int) *sweeps {
	s := &sweeps{}
	for i := 0; i < n; i++ {
		s.runs = append(s.runs, newSweep(seed*uint64(n)+uint64(i), k, size, ops))
	}
	return s
}

func (s *sweeps) setup() error {
	for i, p := range s.runs {
		if err := p.setup(); err != nil {
			return fmt.Errorf("part %d: %w", i, err)
		}
	}
	return nil
}

// step sweeps every run and sums their counters.
func (s *sweeps) step(c *checks) stepOut {
	out := stepOut{layer: map[string]float64{}}
	var fp strings.Builder
	for i, p := range s.runs {
		o := p.step(c)
		fmt.Fprintf(&fp, "part %d: %s\n", i, o.fp)
		out.simOps += o.simOps
		out.boundaries += o.boundaries
		// maprange:ok — each key is added to once per part
		for k, v := range o.layer {
			out.layer[k] += v
		}
	}
	out.fp = fp.String()
	return out
}

type sweep struct {
	cfg  lrp.Config
	spec lrp.Spec
	m    *lrp.Machine
	rec  lrp.Recoverable
	hist *lrp.OpHistory
	rep  *lrp.SweepReport
}

func newSweep(seed uint64, k lrp.Mechanism, size, ops int) *sweep {
	cfg := machineConfig(k)
	cfg.TrackHB = true
	return &sweep{
		cfg:  cfg,
		spec: lrp.Spec{Structure: "hashmap", Threads: 8, InitialSize: size, OpsPerThread: ops, Seed: seed},
	}
}

func (s *sweep) setup() error {
	_, m, rec, h, err := lrp.RunRecoverableWorkloadHist(s.cfg, s.spec)
	if err != nil {
		return fmt.Errorf("recorded run: %w", err)
	}
	s.m, s.rec, s.hist = m, rec, h
	return nil
}

func (s *sweep) step(c *checks) stepOut {
	rep, err := lrp.SweepCrash(s.m, lrp.SweepOpts{Rec: s.rec, Hist: s.hist, Workers: 1, Seed: s.spec.Seed})
	if !c.noErr(err, "sweep") {
		return stepOut{}
	}
	s.rep = rep
	if s.cfg.Mechanism.EnforcesRP() {
		c.expect(rep.Consistent(), "sweep under %s is not clean: %v", s.cfg.Mechanism, rep)
	}
	c.expect(rep.WalksRun == rep.Boundaries && rep.DLinChecked == rep.Boundaries,
		"sweep skipped boundaries: %v", rep)
	tl := talliesOf(rep)
	return stepOut{
		fp:         fmt.Sprintf("%s %+v", fingerprint(s.m), tl),
		simOps:     s.m.Stats().Ops,
		boundaries: uint64(rep.Boundaries),
		layer: map[string]float64{
			"model.rp_violations":  float64(rep.RPBad),
			"model.arp_violations": float64(rep.ARPBad),
			"recovery.walks":       float64(rep.WalksRun),
			"recovery.dirty_walks": float64(rep.DirtyWalks),
			"dlin.checked":         float64(rep.DLinChecked),
			"dlin.violations":      float64(rep.DLinBad),
			"memsys.sim_ops":       float64(s.m.Stats().Ops),
			"memsys.sim_cycles":    float64(s.m.Time()),
		},
	}
}

// tallies are the counts a sweep report and its replica must agree on.
type tallies struct {
	Boundaries, RPBad, ARPBad, WalksRun, DirtyWalks, Quarantined, DLinChecked, DLinBad int
}

func talliesOf(r *lrp.SweepReport) tallies {
	return tallies{r.Boundaries, r.RPBad, r.ARPBad, r.WalksRun, r.DirtyWalks, r.Quarantined, r.DLinChecked, r.DLinBad}
}

// replica repeats SweepCrash's serial loop from the same public calls,
// one span per call, and returns its tallies.
func (s *sweep) replica(t *tracer) (tallies, error) {
	var tl tallies
	tr := s.m.Tracker()
	var bounds []lrp.Time
	id := t.begin("lrp.crash_boundaries", "nvm")
	bounds = lrp.CrashBoundaries(s.m)
	t.end(id)
	tl.Boundaries = len(bounds)
	id = t.begin("dlin.new_checker", "dlin")
	ck, err := dlin.NewChecker(s.hist, tr)
	t.end(id)
	if err != nil {
		return tl, err
	}
	pass := ck.NewPass()
	// The mechanism's own durable log when it owns the image (eADR), the
	// NVM persist log otherwise — as SweepCrash chooses.
	mcur := s.m.MechCrashCursor()
	var cur *nvm.Cursor
	var mimg *mm.Memory
	if mcur != nil {
		mimg = mm.NewMemory()
	} else {
		cur = s.m.NVM().NewCursor(nil)
	}
	for _, at := range bounds {
		b := t.begin("sweep.boundary", layerBench)
		id = t.begin("model.checkcut_rp", "model")
		rp := tr.CheckCut(at, model.RP)
		t.end(id)
		id = t.begin("model.checkcut_arp", "model")
		arp := tr.CheckCut(at, model.ARP)
		t.end(id)
		id = t.begin("nvm.cursor", "nvm")
		var img *mm.Memory
		if mcur != nil {
			mcur.ApplyTo(mimg, at)
			img = mimg
		} else {
			img = cur.AdvanceTo(at)
		}
		t.end(id)
		id = t.begin("recovery.walk", "recovery")
		r := s.rec.Recover(img)
		t.end(id)
		id = t.begin("dlin.check", "dlin")
		vs := pass.Check(at, r)
		t.end(id)
		t.end(b)

		if len(rp) > 0 {
			tl.RPBad++
		}
		if len(arp) > 0 {
			tl.ARPBad++
		}
		tl.WalksRun++
		if !r.Clean() {
			tl.DirtyWalks++
			tl.Quarantined += len(r.Quarantined)
		}
		tl.DLinChecked++
		if len(vs) > 0 {
			tl.DLinBad++
		}
	}
	return tl, nil
}

// traced runs every part's replica, one span each, after a collection
// as the untraced step has.
func (s *sweeps) traced(t *tracer, c *checks) tracedOut {
	runtime.GC()
	var step float64
	for i, p := range s.runs {
		id := t.begin("sweep.replica", layerBench)
		tl, err := p.replica(t)
		t.end(id)
		step += t.secs(id)
		if c.noErr(err, fmt.Sprintf("sweep replica of part %d", i)) && p.rep != nil {
			c.expect(tl == talliesOf(p.rep), "part %d: sweep replica tallies %+v, SweepCrash %+v", i, tl, talliesOf(p.rep))
		}
	}
	self := t.selfBy(func(s span) string { return s.Name })
	us := t.durations("sweep.boundary")
	for i := range us {
		us[i] *= 1e6
	}
	return tracedOut{
		vals: map[string]float64{
			"model.checkcut_rp_s":   self["model.checkcut_rp"],
			"model.checkcut_arp_s":  self["model.checkcut_arp"],
			"nvm.cursor_s":          self["nvm.cursor"],
			"recovery.walk_s":       self["recovery.walk"],
			"dlin.check_s":          self["dlin.check"],
			"sweep.boundary_us_p50": quantile(us, 0.50),
			"sweep.boundary_us_p99": quantile(us, 0.99),
		},
		step: step,
	}
}
