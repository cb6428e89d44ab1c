package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Layer tags for spans. A span tagged layerSplit runs several layers at
// once (a whole live run, a replay); its time is split across layers by
// differential timing, not by its own tag.
const (
	layerBench = "bench"
	layerSplit = "split"
)

// span is one timed call made by the benchmark into the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no parent
	Run    string `json:"run"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. Spans nest strictly: begin pushes, end
// pops, so children of one span never overlap each other.
type tracer struct {
	run   string
	epoch time.Time
	spans []span
	open  []int // ids of spans not yet ended
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name, layer string) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Layer: layer, Start: t.now()})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("lrpperf: spans must end innermost first")
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id-1].End = t.now()
}

// add records a finished span inside parent from instants taken
// elsewhere (the window marks of a live run).
func (t *tracer) add(name, layer string, parent int, start, end time.Time) {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Layer: layer,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// secs is span id's duration in seconds.
func (t *tracer) secs(id int) float64 {
	s := t.spans[id-1]
	return float64(s.End-s.Start) / 1e9
}

// self returns each span's self time in seconds: its duration minus the
// durations of its children, indexed by id-1.
func (t *tracer) self() []float64 {
	out := make([]float64, len(t.spans))
	for i := range t.spans {
		out[i] += t.secs(i + 1)
		if p := t.spans[i].Parent; p > 0 {
			out[p-1] -= t.secs(i + 1)
		}
	}
	return out
}

// selfBy sums self time per key.
func (t *tracer) selfBy(key func(span) string) map[string]float64 {
	out := map[string]float64{}
	for i, s := range t.self() {
		out[key(t.spans[i])] += s
	}
	return out
}

// durations lists the durations, in seconds, of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, t.secs(i+1))
		}
	}
	return out
}

// spanFile is the traced run's JSON output.
type spanFile struct {
	Run           string             `json:"run"`
	Env           any                `json:"env"`
	WallS         float64            `json:"wall_s"`
	TraceOverhead float64            `json:"trace_overhead"`
	LayersS       map[string]float64 `json:"layers_s"`
	SelfS         map[string]float64 `json:"self_s"`
	Spans         []span             `json:"spans"`
}

func (t *tracer) write(path string, env any, wall, overhead float64, layers map[string]float64) error {
	f := spanFile{
		Run:           t.run,
		Env:           env,
		WallS:         wall,
		TraceOverhead: overhead,
		LayersS:       layers,
		SelfS:         t.selfBy(func(s span) string { return s.Name }),
		Spans:         t.spans,
	}
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// median of xs (mean of the middle two for an even count).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the q-th sample quantile of xs by linear interpolation
// between closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
