package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"lrp"
)

// Tiny versions of the three workloads.
func tinyLive() *liveKV                { return newLiveKV(5, 4096, 300) }
func tinyReplay() *replay              { return newReplay(5, 512, 100) }
func tinySweep(k lrp.Mechanism) *sweep { return newSweep(5, k, 64, 10) }
func tinySweeps() *sweeps              { return newSweeps(5, lrp.LRP, 2, 64, 10) }

func TestReplicaTalliesMatchSweepCrash(t *testing.T) {
	// ARP breaks RP at some boundaries, so the tallies compared include
	// violations; eADR takes the mechanism-cursor branch.
	for _, k := range []lrp.Mechanism{lrp.LRP, lrp.ARP, lrp.EADR} {
		s := tinySweep(k)
		if err := s.setup(); err != nil {
			t.Fatal(err)
		}
		c := &checks{}
		s.step(c)
		if c.failed != 0 {
			t.Fatalf("%s: %d of %d checks failed", k, c.failed, c.attempted)
		}
		got, err := s.replica(newTracer("test"))
		if err != nil {
			t.Fatal(err)
		}
		if want := talliesOf(s.rep); got != want {
			t.Errorf("%s: replica tallies %+v, SweepCrash %+v", k, got, want)
		}
		if k == lrp.ARP && got.ARPBad+got.RPBad == 0 {
			t.Errorf("ARP sweep found no violation; the comparison covers none")
		}
	}
}

// traceTiny runs r's traced run the way bench does and returns the
// tracer, the root span and the attribution.
func traceTiny(t *testing.T, r runner) (*tracer, int, tracedOut, map[string]float64) {
	t.Helper()
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	c := &checks{}
	r.step(c)
	tr := newTracer("test")
	root := tr.begin("root", layerBench)
	out := r.traced(tr, c)
	tr.end(root)
	if c.failed != 0 {
		t.Fatalf("%d of %d checks failed", c.failed, c.attempted)
	}
	return tr, root, out, attribute(tr, out.parts)
}

func TestLayersAccountForTracedWall(t *testing.T) {
	for name, r := range map[string]runner{
		"live-kv": tinyLive(), "replay-hashmap": tinyReplay(), "sweep-hashmap": tinySweeps(),
	} {
		tr, root, _, layers := traceTiny(t, r)
		var sum float64
		for _, v := range layers {
			sum += v
		}
		if wall := tr.secs(root); math.Abs(sum-wall) > 1e-9*wall {
			t.Errorf("%s: layers %v sum to %.9fs, traced wall %.9fs", name, layers, sum, wall)
		}
	}
}

// The mechanism terms are left out: at this size the LRP and NOP replays
// differ by less than one call's timer noise, so their sign is not stable.
func TestDifferentialLayersNonNegative(t *testing.T) {
	for name, r := range map[string]runner{"live-kv": tinyLive(), "replay-hashmap": tinyReplay()} {
		_, _, out, layers := traceTiny(t, r)
		v := out.vals
		for _, k := range []string{"engine.frontend_s", "memsys.protocol_s", "trace.decode_s", "trace.encode_s"} {
			if v[k] < 0 {
				t.Errorf("%s: %s = %g < 0", name, k, v[k])
			}
		}
		for k, s := range layers {
			if s < 0 && k != "mech" {
				t.Errorf("%s: layer %s = %gs < 0", name, k, s)
			}
		}
		if name != "live-kv" {
			continue
		}
		if sum, live := v["engine.frontend_s"]+v["memsys.protocol_s"]+v["mech.persist_s"], v["workload.live_s"]; math.Abs(sum-live) > 1e-9*live {
			t.Errorf("frontend+protocol+mechanism = %.9fs, live run %.9fs", sum, live)
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file, want any
	gen, _ := json.Marshal(benchSpec())
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gen, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate with: bash lrpperf/run.sh --write-spec BENCHMARK.json")
	}
	var declared spec
	if err := json.Unmarshal(raw, &declared); err != nil {
		t.Fatal(err)
	}
	names := func(xs []string) []string { sort.Strings(xs); return xs }
	var e2e, layer []string
	for _, m := range declared.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range declared.PerLayer {
		layer = append(layer, m.Name)
	}
	spans := filepath.Join(t.TempDir(), "spans.json")
	for name, r := range map[string]func() runner{
		"live-kv":        func() runner { return tinyLive() },
		"replay-hashmap": func() runner { return tinyReplay() },
		"sweep-hashmap":  func() runner { return tinySweeps() },
	} {
		for _, traced := range []bool{false, true} {
			res, err := bench(name, r(), 1, 0.01, traced, spans)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d checks failed", name, traced, res.Failed, res.Attempted)
			}
			var got []string
			for k := range res.Metrics {
				got = append(got, k)
			}
			want := e2e
			if traced {
				want = layer
			}
			if !reflect.DeepEqual(names(got), names(append([]string(nil), want...))) {
				t.Errorf("%s traced=%v prints %v, BENCHMARK.json declares %v", name, traced, got, want)
			}
		}
	}
}
