// Command perfbench is the repository benchmark: three workloads that
// time the T3D simulator and its job service from the outside, through
// the public API of each module, and check every output they time.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds this package into .bench_build/ and runs it from the
// root of a checkout. The workloads are
//
//   - paper-sweep: every exp registry entry in Quick mode, in registry
//     order, the way a researcher regenerates the paper;
//   - em3d-large: one large seeded EM3D graph through all six versions,
//     steady-state simulation with construction under 2%;
//   - serve-mix: an in-process t3dserve on loopback HTTP with two
//     closed-loop clients, half new jobs and half cache hits.
//
// With --trace 0 the last line of standard output is a JSON object
// with the end-to-end metrics; with --trace 1 the same timed phase runs
// with spans recorded around every call into a module, followed by the
// layer probes, and the JSON carries the per-layer metrics. All timings
// are host time. Simulated statistics are checked, never reported as
// speeds. README.md maps each per-layer metric to the end-to-end metric
// it should move.
package main

import (
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
)

// buildDir holds everything a run leaves behind: the binary, its build
// cache, temporary serve directories and written traces.
const buildDir = ".bench_build"

// setupReps is how many times each workload repeats its set-up; setup_s
// is the median. Each repetition starts from a freshly collected heap,
// so one repetition's garbage does not tax the next.
const setupReps = 15

// workload is one named input set. run executes the set-up and the
// timed phase and records what it measured into r.
type workload struct {
	name string
	run  func(r *run) error
}

var workloads = []workload{
	{"paper-sweep", runSweep},
	{"em3d-large", runEM3D},
	{"serve-mix", runServeMix},
}

// run carries one invocation's options, tracer and results.
type run struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool
	tr       *tracer

	attempted, failed int
	failures          []string

	e2e   map[string]float64
	layer map[string]float64
	// samples records how many observations stand behind a reported
	// median or percentile, for the human-readable report.
	samples map[string]int
	// notes are workload figures printed in the report only.
	notes []note
}

type note struct {
	name, unit string
	value      float64
	n          int
}

// check counts one checked operation and records it as failed when ok
// is false.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

func (r *run) setE2E(name string, v float64, n int) {
	r.e2e[name] = v
	r.samples[name] = n
}

// setLayer records a per-layer metric. Names must come from layerMetrics.
func (r *run) setLayer(name string, v float64) {
	if _, ok := layerUnits[name]; !ok {
		panic("perfbench: unknown per-layer metric " + name)
	}
	r.layer[name] = v
}

func (r *run) note(name, unit string, v float64, n int) {
	r.notes = append(r.notes, note{name, unit, v, n})
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	name := flag.String("workload", "", "workload: paper-sweep, em3d-large or serve-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 40, "measuring budget in seconds")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	record := flag.Bool("record", false, "print the recorded sweep digests and EM3D results as Go source")
	flag.Parse()
	if *record {
		recordEM3D()
		recordSweep()
		return nil
	}

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be positive, got %d", *seconds)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	r := &run{
		workload: w.name, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		trace: *traceFlag == 1, tr: newTracer(*traceFlag == 1),
		e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{},
	}
	if err := w.run(r); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.setE2E("peak_rss_mb", rss, 1)
	if r.trace {
		if err := runProbes(r); err != nil {
			return fmt.Errorf("probes: %w", err)
		}
		r.tr.report(r)
		if err := r.tr.write(filepath.Join(buildDir, "trace",
			fmt.Sprintf("%s-seed%d.json", w.name, r.seed))); err != nil {
			return err
		}
	}
	return emit(r, spec)
}

// benchSpec is the part of BENCHMARK.json the program checks itself
// against, so the metric lists cannot drift apart.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("read benchmark spec: %w", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(s.PerLayer) != len(layerUnits) {
		return s, fmt.Errorf("%s lists %d per-layer metrics, the program reports %d", path, len(s.PerLayer), len(layerUnits))
	}
	for _, m := range s.PerLayer {
		if layerUnits[m.Name] != m.Unit {
			return s, fmt.Errorf("%s: per-layer metric %s [%s] is not one the program reports", path, m.Name, m.Unit)
		}
	}
	return s, nil
}

// emit prints the human-readable report and, as the last line, the
// JSON result.
func emit(r *run, spec benchSpec) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]metric{}
	fmt.Printf("== %s seed=%d trace=%v\n", r.workload, r.seed, r.trace)
	if r.trace {
		for _, m := range spec.PerLayer {
			v := r.layer[m.Name]
			out[m.Name] = metric{v, m.Unit}
			fmt.Printf("  %-34s %14.4f %s\n", m.Name, v, m.Unit)
		}
	} else {
		for _, m := range spec.EndToEnd {
			v, ok := r.e2e[m.Name]
			if !ok {
				return fmt.Errorf("end-to-end metric %s was not measured", m.Name)
			}
			out[m.Name] = metric{v, m.Unit}
			fmt.Printf("  %-34s %14.4f %-6s n=%d\n", m.Name, v, m.Unit, r.samples[m.Name])
		}
	}
	for _, n := range r.notes {
		fmt.Printf("  %-34s %14.4f %-6s n=%d\n", n.name, n.value, n.unit, n.n)
	}
	fmt.Printf("  %-34s %14.4f ratio  n=%d\n", "fail_ratio", float64(r.failed)/float64(max(r.attempted, 1)), r.attempted)
	for _, f := range r.failures {
		fmt.Println("  FAILED:", f)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, max(r.attempted, 1), r.failed, out}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	pos := q * float64(len(ys)-1)
	lo := int(pos)
	if lo+1 >= len(ys) {
		return ys[len(ys)-1]
	}
	return ys[lo] + (pos-float64(lo))*(ys[lo+1]-ys[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// allocated returns the bytes the process has allocated so far.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// mallocs returns the heap objects the process has allocated so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

const mb = 1 << 20

// beginTimed ends a workload's set-up: it returns the set-up's garbage
// to the OS and restarts the resident-set high-water mark, so that
// peak_rss_mb is the timed phase's own.
func beginTimed() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
