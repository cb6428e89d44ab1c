// Command lrpperf is the repository's benchmark: it runs one workload of
// the simulator, checks its outputs, and prints end-to-end metrics
// (untraced run) or per-layer metrics (traced run). It measures only from
// outside the program, by timing calls into its public functions. See
// README.md.
//
//	bash lrpperf/run.sh --workload live-kv --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"lrp/internal/perf"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// gcPercent is the collector's target the benchmark runs with (GOGC).
// At the default of 100 the sweep's few-MB live heap is collected about
// 80 times per swept run, and when the shared host takes the
// collector's CPU the heap overshoots its goal, so the peak resident set
// followed the host more than the program. At 400 the step time is
// within a few percent of the default's.
const gcPercent = 400

func main() {
	debug.SetGCPercent(gcPercent)
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("lrpperf", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", runSeconds, "how long to repeat the timed step")
	traceOn := fs.Int("trace", 0, "0: print end-to-end metrics; 1: also run the traced run and print per-layer metrics")
	spans := fs.String("spans", "", "traced run's span file (default .bench_build/spans/spans-<workload>-<seed>.json)")
	specOut := fs.String("write-spec", "", "write BENCHMARK.json to this path and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *specOut != "" {
		if err := writeSpec(*specOut); err != nil {
			fmt.Fprintln(os.Stderr, "lrpperf:", err)
			return 1
		}
		return 0
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || (*traceOn != 0 && *traceOn != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "lrpperf: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	path := *spans
	if path == "" {
		path = filepath.Join(".bench_build", "spans", fmt.Sprintf("spans-%s-%d.json", def.name, *seed))
	}
	res, err := bench(def.name, def.new(*seed), *seed, *seconds, *traceOn == 1, path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lrpperf: %s seed=%d: %v\n", def.name, *seed, err)
		return 1
	}
	printMetrics(res.Metrics)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lrpperf:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// bench runs one workload: the untraced measurement, and with traced set
// the traced run too, whose spans it writes to spansPath.
func bench(name string, r runner, seed uint64, seconds float64, traced bool, spansPath string) (result, error) {
	env := perf.HostEnv()
	fmt.Printf("# lrpperf %s seed=%d seconds=%g traced=%v\n# env: %s\n", name, seed, seconds, traced, env)
	c := &checks{}
	ms, err := measure(r, seconds, c)
	if err != nil {
		return result{}, err
	}
	wall := median(ms.wall)
	fmt.Printf("# set-ups %s s; timed reps %s s\n", fmtSecs(ms.setup), fmtSecs(ms.wall))

	set, vals := endToEnd, map[string]float64{
		"setup_s":          median(ms.setup),
		"wall_s":           wall,
		"sim_mops_per_s":   float64(ms.first.simOps) / 1e6 / wall,
		"boundaries_per_s": float64(ms.first.boundaries) / wall,
		"peak_rss_mb":      peakRSSMB(),
	}
	if traced {
		t := newTracer(fmt.Sprintf("%s/seed=%d/pid=%d", name, seed, os.Getpid()))
		root := t.begin(name, layerBench)
		tr := r.traced(t, c)
		t.end(root)
		layers := attribute(t, tr.parts)
		// Against the reps just before the traced run: the host's speed
		// drifts within a run by more than the instrument costs.
		overhead := tr.step/median(ms.wall[max(0, len(ms.wall)-5):]) - 1

		set, vals = perLayer, map[string]float64{}
		// maprange:ok — keys copied into another map
		for k, v := range ms.first.layer {
			vals[k] = v
		}
		// maprange:ok — keys copied into another map
		for k, v := range tr.vals {
			vals[k] = v
		}
		vals["runtime.alloc_mb"] = median(ms.allocMB)
		vals["runtime.gc_cycles"] = median(ms.gcs)
		vals["trace_overhead"] = overhead
		vals["error_rate"] = float64(c.failed) / float64(c.attempted)

		if err := t.write(spansPath, env, t.secs(root), overhead, layers); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("# traced wall %.3fs in %d spans -> %s\n# layers_s:", t.secs(root), len(t.spans), spansPath)
		for _, k := range sortedKeys(layers) {
			fmt.Printf(" %s=%.3f", k, layers[k])
		}
		fmt.Println()
	}
	return result{
		Correct:   c.failed == 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   report(set, vals),
	}, nil
}

// measurement holds one run's untraced samples.
type measurement struct {
	setup, wall, allocMB, gcs []float64
	first                     stepOut
	seen                      bool
}

// measure sets up setupReps times, each set-up followed by one untimed
// pass of the step (heap growth and other lazy set-up), then repeats the
// timed step for the given seconds. Every pass must reproduce the first
// pass's simulated results exactly.
func measure(r runner, seconds float64, c *checks) (*measurement, error) {
	ms := &measurement{}
	keep := func(out stepOut) {
		if !ms.seen {
			ms.first, ms.seen = out, true
			return
		}
		c.expect(out.fp == ms.first.fp, "simulated results differ from the first pass:\n%s\nfirst:\n%s", out.fp, ms.first.fp)
	}
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		if err := r.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out := r.step(c)
		ms.setup = append(ms.setup, time.Since(start).Seconds())
		keep(out)
	}
	budget := time.Duration(seconds * float64(time.Second))
	begin := time.Now()
	for len(ms.wall) == 0 || time.Since(begin) < budget {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		out := r.step(c)
		ms.wall = append(ms.wall, time.Since(start).Seconds())
		runtime.ReadMemStats(&after)
		ms.allocMB = append(ms.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		ms.gcs = append(ms.gcs, float64(after.NumGC-before.NumGC))
		keep(out)
	}
	return ms, nil
}

// attribute splits the traced run's wall across layers: spans tagged
// with a layer count their self time there, and the time of layerSplit
// spans is replaced by the workload's differential split of it.
func attribute(t *tracer, parts map[string]float64) map[string]float64 {
	layers := t.selfBy(func(s span) string { return s.Layer })
	delete(layers, layerSplit)
	// maprange:ok — each key is added to once
	for k, v := range parts {
		layers[k] += v
	}
	return layers
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB; it falls
// back to the Go runtime's total obtained memory where /proc is absent.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / 1e6
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func fmtSecs(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	// maprange:ok — the keys are sorted below
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
