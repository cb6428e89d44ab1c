package dlin

import (
	"maps"
	"reflect"
	"testing"

	"lrp/internal/engine"
	"lrp/internal/model"
	"lrp/internal/recovery"
)

// fixture is one thread's history over a keyed set: insert(5) links a
// node whose initializing store persists late (t=30) although the link
// itself persists at t=10 — the ARP gap — then insert(7) at t=12 and
// delete(5) at t=40.
func fixture(t *testing.T) *Checker {
	t.Helper()
	tr := model.NewTracker(1)
	init5 := tr.OnWrite(0, 0x100)
	ins5 := tr.OnRelease(0, 0x200)
	ins7 := tr.OnRelease(0, 0x300)
	del5 := tr.OnRelease(0, 0x200)
	tr.SetPersisted(init5, 30)
	tr.SetPersisted(ins5, 10)
	tr.SetPersisted(ins7, 12)
	tr.SetPersisted(del5, 40)
	h := &History{Structure: "linkedlist", Ops: []Op{
		{Kind: OpInsert, Key: 5, Val: 50, OK: true, Lin: ins5, LinSeq: 1},
		{Kind: OpInsert, Key: 7, Val: 70, OK: true, Lin: ins7, LinSeq: 2},
		{Kind: OpDelete, Key: 5, OK: true, Lin: del5, LinSeq: 3},
	}}
	ck, err := NewChecker(h, tr)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

func setReport(members map[uint64]uint64) *recovery.Report {
	return &recovery.Report{Structure: "linkedlist", Set: &recovery.SetState{Members: maps.Clone(members)}}
}

func classes(vs []Violation) []Class {
	var out []Class
	for _, v := range vs {
		out = append(out, v.Class)
	}
	return out
}

// TestCheckSameReportMatchesFreshReport: a Pass handed the same report
// twice (the sweep's reuse on unchanged images) reports exactly what a
// fresh Pass reports for an equal but distinct report.
func TestCheckSameReportMatchesFreshReport(t *testing.T) {
	ck := fixture(t)
	members := map[uint64]uint64{7: 70, 9: 90} // 5 lost, 9 a phantom
	p := ck.NewPass()
	rep := setReport(members)
	first := p.Check(20, rep)
	again := p.Check(20, rep)
	fresh := ck.NewPass().Check(20, setReport(members))
	if !reflect.DeepEqual(first, fresh) || !reflect.DeepEqual(again, fresh) {
		t.Fatalf("reused report diverges:\n first %v\n again %v\n fresh %v", first, again, fresh)
	}
	if got := classes(fresh); !reflect.DeepEqual(got, []Class{AckedLost, Phantom}) {
		t.Fatalf("classes = %v, want [acked-but-lost phantom]: %v", got, fresh)
	}
	// An equal but distinct report after the cached one changes nothing.
	if other := p.Check(20, setReport(members)); !reflect.DeepEqual(other, fresh) {
		t.Fatalf("equal report after a cached one diverges: %v vs %v", other, fresh)
	}
}

// TestCheckAckedLostFollowsInstant: with the report and the durable
// prefix held fixed, a missing key is acked-but-lost only while the
// instant is before the op's last happens-before predecessor persists
// (needW); from then on it is legal buffering.
func TestCheckAckedLostFollowsInstant(t *testing.T) {
	ck := fixture(t)
	p := ck.NewPass()
	rep := setReport(map[uint64]uint64{7: 70})
	for _, c := range []struct {
		at   engine.Time
		lost bool
	}{{20, true}, {29, true}, {30, false}, {35, false}, {25, true}} {
		vs := p.Check(c.at, rep)
		lost := len(vs) == 1 && vs[0].Class == AckedLost && vs[0].Key == 5 && vs[0].At == c.at
		if lost != c.lost || (!c.lost && len(vs) != 0) {
			t.Fatalf("t=%d: want acked-but-lost=%v, got %v", c.at, c.lost, vs)
		}
	}
}

// TestCheckSameReportNewPrefix: the mismatch list is keyed by the
// durable prefix as well as the report — a report that matched one
// prefix must be re-diffed against a longer one.
func TestCheckSameReportNewPrefix(t *testing.T) {
	ck := fixture(t)
	p := ck.NewPass()
	rep := setReport(map[uint64]uint64{5: 50, 7: 70})
	if vs := p.Check(35, rep); len(vs) != 0 {
		t.Fatalf("t=35: report matches the durable prefix, got %v", vs)
	}
	vs := p.Check(45, rep) // delete(5) is durable now
	if len(vs) != 1 || vs[0].Class != Phantom || vs[0].Key != 5 {
		t.Fatalf("t=45: want one phantom on key 5, got %v", vs)
	}
}
