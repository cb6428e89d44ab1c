package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"lrp"
)

// metric is one named number the benchmark reports. End-to-end metrics
// (bound > 0) are printed by untraced runs and gated by the bound;
// per-layer metrics are printed by traced runs and carry no bound.
type metric struct {
	name, unit, better string
	bound              float64
}

// runSeconds is how long one run repeats the timed step: 12 to 60 reps
// at the workloads' sizes, so a run's median spans several of the shared
// host's slow and fast phases.
const runSeconds = 30

// endToEnd is what a user of the simulator sees, in host time. On the
// shared 2-vCPU host the benchmark was tuned on, a memory-latency-bound
// reference loop slowed by up to 20% from one minute to the next, and a
// run's median moved with it (README.md), so every bound is the largest
// allowed. Peak RSS is a Go heap of some tens of MB (see gcPercent).
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"sim_mops_per_s", "Mop/s", "higher", 0.25},
	{"boundaries_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is the traced run's attribution. Metrics a workload does not
// exercise read 0 there (no replay ran, no boundary was swept, ...).
var perLayer = func() []metric {
	ms := []metric{
		{"workload.fill_s", "s", "lower", 0},
		{"workload.window_s", "s", "lower", 0},
		{"workload.live_s", "s", "lower", 0},
		{"engine.frontend_s", "s", "lower", 0},
		{"engine.grants", "count", "lower", 0},
		{"engine.runahead_ops", "count", "higher", 0},
		{"memsys.protocol_s", "s", "lower", 0},
		{"cache.writebacks", "count", "lower", 0},
		{"cache.downgrades", "count", "lower", 0},
		{"mech.persist_s", "s", "lower", 0},
		{"mech.persists", "count", "lower", 0},
		{"mech.critical_persists", "count", "lower", 0},
		{"mech.stall_cycles", "cycles", "lower", 0},
		{"mech.engine_scans", "count", "lower", 0},
		{"nvm.reads", "count", "lower", 0},
		{"trace.decode_s", "s", "lower", 0},
		{"trace.record_s", "s", "lower", 0},
		{"trace.encode_s", "s", "lower", 0},
		{"model.checkcut_rp_s", "s", "lower", 0},
		{"model.checkcut_arp_s", "s", "lower", 0},
		{"nvm.cursor_s", "s", "lower", 0},
		{"recovery.walk_s", "s", "lower", 0},
		{"dlin.check_s", "s", "lower", 0},
		{"sweep.boundary_us_p50", "us", "lower", 0},
		{"sweep.boundary_us_p99", "us", "lower", 0},
		{"model.rp_violations", "count", "lower", 0},
		{"model.arp_violations", "count", "lower", 0},
		{"recovery.walks", "count", "higher", 0},
		{"recovery.dirty_walks", "count", "lower", 0},
		{"dlin.checked", "count", "higher", 0},
		{"dlin.violations", "count", "lower", 0},
		{"memsys.sim_ops", "count", "lower", 0},
		{"memsys.sim_cycles", "cycles", "lower", 0},
		{"runtime.alloc_mb", "MB", "lower", 0},
		{"runtime.gc_cycles", "count", "lower", 0},
		{"trace_overhead", "ratio", "lower", 0},
		{"error_rate", "ratio", "lower", 0},
	}
	for _, k := range lrp.MechanismNames() {
		ms = append(ms, metric{"replay." + k + "_s", "s", "lower", 0})
	}
	for _, k := range lrp.MechanismNames() {
		ms = append(ms, metric{"memsys.sim_cycles." + k, "cycles", "lower", 0})
	}
	return ms
}()

// result is the benchmark's last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report fills a result with exactly the metrics of set, taking values
// from vals. A value the catalogue does not name is a programming error.
func report(set []metric, vals map[string]float64) map[string]value {
	known := make(map[string]string, len(set))
	for _, m := range set {
		known[m.name] = m.unit
	}
	// maprange:ok — a check on each key alone
	for name := range vals {
		if _, ok := known[name]; !ok {
			panic(fmt.Sprintf("lrpperf: metric %q is not in the catalogue", name))
		}
	}
	out := make(map[string]value, len(set))
	for _, m := range set {
		out[m.name] = value{vals[m.name], m.unit}
	}
	return out
}

// printMetrics lists every metric as "name value unit", sorted by name.
func printMetrics(ms map[string]value) {
	names := make([]string, 0, len(ms))
	// maprange:ok — the names are sorted below
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %16.6f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// spec is BENCHMARK.json, generated from the catalogue so the names the
// benchmark prints and the names the file declares cannot drift apart.
type spec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []specLoad    `json:"workloads"`
	EndToEnd   []specBounded `json:"end_to_end"`
	PerLayer   []specLayer   `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specBounded struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func benchSpec() spec {
	s := spec{
		Command:    []string{"bash", "lrpperf/run.sh"},
		Paths:      []string{"lrpperf"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, specLoad{w.name, w.why})
	}
	for _, m := range endToEnd {
		s.EndToEnd = append(s.EndToEnd, specBounded{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		s.PerLayer = append(s.PerLayer, specLayer{m.name, m.unit, m.better})
	}
	return s
}

func writeSpec(path string) error {
	b, err := json.MarshalIndent(benchSpec(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
