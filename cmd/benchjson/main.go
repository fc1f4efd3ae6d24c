// Command benchjson runs the repository benchmark declared in
// BENCHMARK.json and files the result as the next free BENCH_<n>.json.
// Run it from the root of a checkout:
//
//	make bench
//
// Each workload runs five times untraced, giving the median and
// quartiles of every end-to-end metric, then once traced, giving the
// per-layer metrics. No snapshot is written if any run fails a check.
// The new snapshot is then compared with the newest earlier one of the
// same schema: an end-to-end metric has changed only when the two
// quartile ranges do not overlap, and the per-layer event and
// allocation counts must agree.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

const (
	// schema marks the snapshots this tool writes. BENCH_1..3 carry
	// none: they are single `go test -bench` runs of a harness that no
	// longer exists.
	schema = 2
	runs   = 5 // untraced runs per workload
	seed   = 1

	// allocSlack is how far two *_allocs counts may differ and still
	// agree. A probe reads the process-wide malloc count, so a runtime
	// allocation landing inside its loop moves the per-operation figure
	// by about 1e-4 between runs of one build.
	allocSlack = 0.01
)

// spec is the part of BENCHMARK.json this tool reads. Units come with
// each run's values.
type spec struct {
	Command    []string
	RunSeconds int     `json:"run_seconds"`
	Workloads  []named `json:"workloads"`
	EndToEnd   []named `json:"end_to_end"`
	PerLayer   []named `json:"per_layer"`
}

type named struct{ Name string }

// result is the JSON line a benchmark run ends with.
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

// spread is one end-to-end metric over a workload's untraced runs.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

type workload struct {
	Name      string            `json:"name"`
	Attempted int               `json:"attempted"` // checks, summed over all runs
	Failed    int               `json:"failed"`
	EndToEnd  map[string]spread `json:"end_to_end"`
	PerLayer  map[string]value  `json:"per_layer"` // from the traced run
}

type snapshot struct {
	Schema     int        `json:"schema"`
	GoVersion  string     `json:"go_version"`
	CPUs       int        `json:"cpus"`
	Seed       int        `json:"seed"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []workload `json:"workloads"`
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	if len(sp.Command) == 0 {
		return fmt.Errorf("BENCHMARK.json names no command")
	}
	snap := snapshot{Schema: schema, GoVersion: runtime.Version(), CPUs: runtime.NumCPU(),
		Seed: seed, RunSeconds: sp.RunSeconds}
	for _, w := range sp.Workloads {
		var rs []result
		for i := range runs + 1 {
			r, err := runOnce(sp, w.Name, i/runs) // only the last run is traced
			if err != nil {
				return err
			}
			rs = append(rs, r)
		}
		ws, err := summarize(sp, w.Name, rs[:runs], rs[runs])
		if err != nil {
			return err
		}
		snap.Workloads = append(snap.Workloads, ws)
	}

	n := 1
	for ; ; n++ {
		_, err := os.Stat(benchPath(".", n))
		if errors.Is(err, fs.ErrNotExist) {
			break
		}
		if err != nil {
			return err
		}
	}
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(benchPath(".", n), append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchjson: wrote %s\n", benchPath(".", n))

	old, path, skipped, err := previous(".", n)
	for _, p := range skipped {
		fmt.Printf("benchjson: %s is not comparable: a single go test -bench run\n", p)
	}
	if err != nil || path == "" {
		return err
	}
	diffs := compare(old, snap)
	fmt.Printf("benchjson: against %s: %d changed\n", path, len(diffs))
	for _, d := range diffs {
		fmt.Println("  " + d)
	}
	return nil
}

// runOnce runs the benchmark command for one workload, echoing its
// report, and decodes the result on the report's last line.
func runOnce(sp spec, name string, trace int) (result, error) {
	args := append(sp.Command[1:len(sp.Command):len(sp.Command)],
		"--workload", name, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(sp.RunSeconds), "--trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd := exec.Command(sp.Command[0], args...)
	cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &out), os.Stderr
	var r result
	if err := cmd.Run(); err != nil {
		return r, fmt.Errorf("%s --trace %d: %w", name, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return r, fmt.Errorf("%s --trace %d: parse result line: %w", name, trace, err)
	}
	return r, nil
}

// summarize reduces one workload's runs to its snapshot entry. It
// refuses a workload if any run failed a check or left out a metric
// BENCHMARK.json lists.
func summarize(sp spec, name string, untraced []result, traced result) (workload, error) {
	w := workload{Name: name, EndToEnd: map[string]spread{}, PerLayer: map[string]value{}}
	for i, r := range append(untraced[:len(untraced):len(untraced)], traced) {
		if !r.Correct || r.Failed > 0 {
			return w, fmt.Errorf("%s run %d: %d of %d checks failed; no snapshot written", name, i+1, r.Failed, r.Attempted)
		}
		w.Attempted += r.Attempted
	}
	for _, m := range sp.EndToEnd {
		var xs []float64
		for _, r := range untraced {
			v, ok := r.Metrics[m.Name]
			if !ok {
				return w, fmt.Errorf("%s: an untraced run did not report %s", name, m.Name)
			}
			xs = append(xs, v.Value)
		}
		sort.Float64s(xs)
		w.EndToEnd[m.Name] = spread{quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75), len(xs),
			untraced[0].Metrics[m.Name].Unit}
	}
	for _, m := range sp.PerLayer {
		v, ok := traced.Metrics[m.Name]
		if !ok {
			return w, fmt.Errorf("%s: the traced run did not report %s", name, m.Name)
		}
		w.PerLayer[m.Name] = v
	}
	return w, nil
}

// quantile returns the q-quantile of the sorted xs, interpolating
// linearly between closest ranks.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// compare lists, sorted, what differs from old to cur: end-to-end
// metrics whose quartile ranges do not overlap, and per-layer *_events
// counts that are not identical or *_allocs counts further apart than
// allocSlack.
func compare(old, cur snapshot) []string {
	olds := map[string]workload{}
	for _, w := range old.Workloads {
		olds[w.Name] = w
	}
	var diffs []string
	for _, cw := range cur.Workloads {
		ow := olds[cw.Name] // a workload new since old compares against zeros
		for name, c := range cw.EndToEnd {
			if o := ow.EndToEnd[name]; c.Q3 < o.Q1 || c.Q1 > o.Q3 {
				diffs = append(diffs, fmt.Sprintf("%s %s: %.4g [%.4g, %.4g] -> %.4g [%.4g, %.4g] %s",
					cw.Name, name, o.Median, o.Q1, o.Q3, c.Median, c.Q1, c.Q3, c.Unit))
			}
		}
		for name, c := range cw.PerLayer {
			o := ow.PerLayer[name]
			if strings.HasSuffix(name, "_events") && c.Value != o.Value ||
				strings.HasSuffix(name, "_allocs") && math.Abs(c.Value-o.Value) > allocSlack {
				diffs = append(diffs, fmt.Sprintf("%s %s: %g -> %g", cw.Name, name, o.Value, c.Value))
			}
		}
	}
	sort.Strings(diffs)
	return diffs
}

// previous returns the newest snapshot in dir numbered below n that
// was written in this schema, with its path ("" if there is none), and
// the paths of the older-schema snapshots passed over on the way.
func previous(dir string, n int) (snapshot, string, []string, error) {
	var skipped []string
	for k := n - 1; k >= 1; k-- {
		path := benchPath(dir, k)
		var s snapshot
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &s)
		}
		if err != nil {
			return s, "", skipped, fmt.Errorf("read %s: %w", path, err)
		}
		if s.Schema == schema {
			return s, path, skipped, nil
		}
		skipped = append(skipped, path)
	}
	return snapshot{}, "", skipped, nil
}

func benchPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n))
}
