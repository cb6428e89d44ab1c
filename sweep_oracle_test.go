package lrp

import (
	"fmt"
	"testing"

	"lrp/internal/dlin"
	"lrp/internal/model"
)

// oracleSweep is the per-boundary slow path SweepCrash must agree with:
// at every boundary it runs both CheckCut passes, rebuilds the crash
// image from scratch, walks it, and checks durable linearizability
// against a fresh report, reusing nothing between boundaries except the
// dlin Pass's replayed prefix.
func oracleSweep(t *testing.T, m *Machine, rec Recoverable, h *OpHistory, seed uint64) *SweepReport {
	t.Helper()
	tr := m.Tracker()
	ck, err := dlin.NewChecker(h, tr)
	if err != nil {
		t.Fatal(err)
	}
	pass := ck.NewPass()
	bounds := CrashBoundaries(m)
	rep := &SweepReport{Mechanism: m.Config().Mechanism.String(), Seed: seed, Boundaries: len(bounds)}
	for i, at := range bounds {
		if len(tr.CheckCut(at, model.RP)) > 0 {
			rep.RPBad++
			if rep.FirstRP == nil {
				rep.FirstRP, _ = Crash(m, at)
			}
		}
		if len(tr.CheckCut(at, model.ARP)) > 0 {
			rep.ARPBad++
		}
		r := rec.Recover(m.CrashImageAt(at))
		rep.WalksRun++
		if !r.Clean() {
			rep.DirtyWalks++
			rep.Quarantined += len(r.Quarantined)
			if rep.FirstDirty == nil {
				rep.FirstDirty, rep.FirstDirtyAt = r, at
			}
		}
		rep.DLinChecked++
		if vs := pass.Check(at, r); len(vs) > 0 {
			rep.DLinBad++
			for _, v := range vs {
				if len(rep.DLinViolations) < MaxDLinFindings {
					rep.DLinViolations = append(rep.DLinViolations, DLinFinding{
						Boundary: i, At: at, Mechanism: rep.Mechanism, Seed: seed, V: v,
					})
				}
			}
		}
	}
	return rep
}

// sweepDiff describes how got differs from the oracle's want ("" when
// they agree on every compared field).
func sweepDiff(want, got *SweepReport) string {
	counts := func(r *SweepReport) string {
		return fmt.Sprintf("bounds=%d rp=%d arp=%d walks=%d dirty=%d quar=%d dlin=%d/%d",
			r.Boundaries, r.RPBad, r.ARPBad, r.WalksRun, r.DirtyWalks, r.Quarantined, r.DLinBad, r.DLinChecked)
	}
	if w, g := counts(want), counts(got); w != g {
		return fmt.Sprintf("counts: oracle %s, sweep %s", w, g)
	}
	if (want.FirstRP == nil) != (got.FirstRP == nil) ||
		want.FirstRP != nil && (want.FirstRP.At != got.FirstRP.At || len(want.FirstRP.RPViolations) != len(got.FirstRP.RPViolations)) {
		return fmt.Sprintf("FirstRP: oracle %+v, sweep %+v", want.FirstRP, got.FirstRP)
	}
	if (want.FirstDirty == nil) != (got.FirstDirty == nil) || want.FirstDirtyAt != got.FirstDirtyAt ||
		want.FirstDirty != nil && want.FirstDirty.String() != got.FirstDirty.String() {
		return fmt.Sprintf("FirstDirty: oracle %v@%d, sweep %v@%d", want.FirstDirty, want.FirstDirtyAt, got.FirstDirty, got.FirstDirtyAt)
	}
	if len(want.DLinViolations) != len(got.DLinViolations) {
		return fmt.Sprintf("DLinViolations: oracle %d findings, sweep %d", len(want.DLinViolations), len(got.DLinViolations))
	}
	for i := range want.DLinViolations {
		if want.DLinViolations[i] != got.DLinViolations[i] {
			return fmt.Sprintf("DLinViolations[%d]: oracle %v, sweep %v", i, want.DLinViolations[i], got.DLinViolations[i])
		}
	}
	return ""
}

// TestSweepMatchesOracle is the differential check on SweepCrash's fast
// path — one-pass cut intervals, walks reused on unchanged images and the
// cached dlin mismatch list — against oracleSweep, for every structure
// and mechanism, with and without the fault plane, serial and sharded.
func TestSweepMatchesOracle(t *testing.T) {
	structures := []string{"linkedlist", "hashmap", "bstree", "skiplist", "queue", "kv"}
	var rpBad, dirty, dlinBad int
	for _, structure := range structures {
		for _, k := range Mechanisms() {
			for _, faults := range []bool{false, true} {
				cfg := dlinCfg(k)
				if faults {
					cfg.Faults = EnableAllFaults(7)
				}
				spec := Spec{Structure: structure, Threads: 4, InitialSize: 64, OpsPerThread: 20, Seed: 7}
				_, m, rec, h, err := RunRecoverableWorkloadHist(cfg, spec)
				if err != nil {
					t.Fatalf("%s/%v faults=%v: %v", structure, k, faults, err)
				}
				want := oracleSweep(t, m, rec, h, spec.Seed)
				rpBad += want.RPBad
				dirty += want.DirtyWalks
				dlinBad += want.DLinBad
				for _, workers := range []int{1, 3} {
					got, err := SweepCrash(m, SweepOpts{Rec: rec, Hist: h, Workers: workers, Seed: spec.Seed})
					if err != nil {
						t.Fatal(err)
					}
					if d := sweepDiff(want, got); d != "" {
						t.Errorf("%s/%v faults=%v workers=%d: %s", structure, k, faults, workers, d)
					}
				}
			}
		}
	}
	// The grid must exercise every first-hit path it compares.
	if rpBad == 0 || dirty == 0 || dlinBad == 0 {
		t.Fatalf("oracle grid lost its teeth: %d RP-violating, %d dirty, %d dlin-violating boundaries", rpBad, dirty, dlinBad)
	}
}

// TestFuzzCrashesMatchesOracle holds FuzzCrashes' one CutViolations call
// to a CheckCut per sampled instant, including which instant FirstRP
// reports (the first violating one in sample order, not in time order).
func TestFuzzCrashesMatchesOracle(t *testing.T) {
	for _, k := range []Mechanism{ARP, NOP, LRP} {
		_, m, err := RunWorkload(tinyConfig(k), Spec{
			Structure: "linkedlist", Threads: 2, InitialSize: 16, OpsPerThread: 40, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := m.Tracker()
		var wantRP, wantARP int
		var wantFirst Time = -1
		for _, at := range sampleInstants(m, 200, 11) {
			if len(tr.CheckCut(at, model.RP)) > 0 {
				wantRP++
				if wantFirst < 0 {
					wantFirst = at
				}
			}
			if len(tr.CheckCut(at, model.ARP)) > 0 {
				wantARP++
			}
		}
		if k == ARP && wantRP == 0 {
			t.Fatal("ARP sample found no RP violation — test lost its teeth")
		}
		rp, arp, first, err := FuzzCrashes(m, 200, 11)
		if err != nil {
			t.Fatal(err)
		}
		gotFirst := Time(-1)
		if first != nil {
			gotFirst = first.At
		}
		if rp != wantRP || arp != wantARP || gotFirst != wantFirst {
			t.Errorf("%v: FuzzCrashes rp=%d arp=%d first@%d, oracle rp=%d arp=%d first@%d",
				k, rp, arp, gotFirst, wantRP, wantARP, wantFirst)
		}
	}
}
