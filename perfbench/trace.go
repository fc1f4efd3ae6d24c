package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a module. Times are nanoseconds since the
// tracer started. Parent is the index of the enclosing span, -1 for a
// root; Req groups the spans of one request (a serve job), 0 elsewhere.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A disabled tracer records nothing and costs one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its index, or -1 when tracing is off.
func (t *tracer) begin(name string, parent int, req int64) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durations returns the durations in seconds of every closed span named
// name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns, per layer, the summed self time in seconds: each
// span's duration minus the part of it that its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]float64{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self[layerOf(s.Name)] += float64(s.End-s.Start-covered(children[i], s.Start, s.End)) / 1e9
	}
	return self
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfLayers are the span layers whose self time is reported.
var selfLayers = []string{"bench", "exp", "machine", "em3d", "serve", "probe"}

// report records the self time of every layer, the span count and the
// cost of recording one span.
func (t *tracer) report(r *run) {
	self := t.selfTimes()
	for _, l := range selfLayers {
		r.setLayer("self."+l+"_s", self[l])
	}
	t.mu.Lock()
	n := len(t.spans)
	t.mu.Unlock()
	r.setLayer("trace.spans", float64(n))

	const reps = 20000
	probe := &tracer{on: true, t0: time.Now(), spans: make([]span, 0, reps)}
	start := time.Now()
	for i := 0; i < reps; i++ {
		probe.end(probe.begin("probe.trace", -1, 0))
	}
	r.setLayer("trace.record_ns", float64(time.Since(start).Nanoseconds())/reps)
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
