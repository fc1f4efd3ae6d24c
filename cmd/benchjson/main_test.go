package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// recorded loads BENCHMARK.json and testdata/serve-mix.jsonl, the result
// lines of five untraced serve-mix runs and one traced run recorded from
// perfbench/run.sh with --seconds 3. Each call decodes afresh, so a test
// may edit what it gets.
func recorded(t *testing.T) (spec, []result, result) {
	t.Helper()
	var sp spec
	var rs []result
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &sp)
	}
	lines, rerr := os.ReadFile("testdata/serve-mix.jsonl")
	if err == nil {
		err = rerr
	}
	for _, line := range bytes.Split(bytes.TrimSpace(lines), []byte("\n")) {
		var r result
		if err == nil {
			err = json.Unmarshal(line, &r)
		}
		rs = append(rs, r)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != runs+1 {
		t.Fatalf("testdata holds %d runs, want %d", len(rs), runs+1)
	}
	return sp, rs[:runs], rs[runs]
}

func summary(t *testing.T, sp spec, untraced []result, traced result) snapshot {
	t.Helper()
	w, err := summarize(sp, "serve-mix", untraced, traced)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range w.EndToEnd {
		if s.N != runs || s.Unit == "" || !(0 < s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3) {
			t.Errorf("%s: %+v", name, s)
		}
	}
	if len(w.EndToEnd) != len(sp.EndToEnd) || len(w.PerLayer) != len(sp.PerLayer) || w.Attempted == 0 {
		t.Fatalf("summary %+v", w)
	}
	return snapshot{Schema: schema, Workloads: []workload{w}}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5, 0.125: 1.5} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

// TestCompare edits one metric of a second copy of the recorded runs
// and checks whether the comparison reports it.
func TestCompare(t *testing.T) {
	cases := []struct {
		name, metric string
		traced       bool
		edit         func(float64) float64
		changed      bool
	}{
		{"identical", "wall_s", false, func(v float64) float64 { return v }, false},
		{"wall_s within the quartiles", "wall_s", false, func(v float64) float64 { return v * 1.01 }, false},
		{"wall_s quartiles disjoint", "wall_s", false, func(v float64) float64 { return v * 3 }, true},
		{"allocs differ", "splitc.get_allocs", true, func(v float64) float64 { return v + 1 }, true},
		{"allocs within slack", "shell.remote_read_allocs", true, func(v float64) float64 { return v + 2e-4 }, false},
		{"events differ", "sim.wait_events", true, func(v float64) float64 { return v + 1e-4 }, true},
		{"per-layer timing", "sim.wait_ns", true, func(v float64) float64 { return v * 10 }, false},
	}
	for _, tc := range cases {
		sp, untraced, traced := recorded(t)
		old := summary(t, sp, untraced, traced)
		sp, untraced, traced = recorded(t)
		edited := untraced
		if tc.traced {
			edited = []result{traced}
		}
		for _, r := range edited {
			v := r.Metrics[tc.metric]
			v.Value = tc.edit(v.Value)
			r.Metrics[tc.metric] = v
		}
		diffs := compare(old, summary(t, sp, untraced, traced))
		if tc.changed != (len(diffs) > 0) ||
			tc.changed && (len(diffs) != 1 || !strings.HasPrefix(diffs[0], "serve-mix "+tc.metric+": ")) {
			t.Errorf("%s: changes %q", tc.name, diffs)
		}
	}
}

func TestSummarizeRefuses(t *testing.T) {
	for _, bad := range []func(untraced []result, traced *result){
		func(u []result, _ *result) { u[2].Failed, u[2].Correct = 1, false },
		func(_ []result, tr *result) { tr.Failed, tr.Correct = 1, false },
		func(u []result, _ *result) { delete(u[0].Metrics, "alloc_mb") },
		func(_ []result, tr *result) { delete(tr.Metrics, "sim.events") },
	} {
		sp, untraced, traced := recorded(t)
		bad(untraced, &traced)
		if w, err := summarize(sp, "serve-mix", untraced, traced); err == nil {
			t.Errorf("summarized %+v", w)
		}
	}
}

// TestPreviousSkipsGoTestSnapshots: the committed BENCH_1..3 are single
// go test -bench runs and are never compared against.
func TestPreviousSkipsGoTestSnapshots(t *testing.T) {
	_, path, skipped, err := previous("../..", 4)
	want := []string{"../../BENCH_3.json", "../../BENCH_2.json", "../../BENCH_1.json"}
	if err != nil || path != "" || !reflect.DeepEqual(skipped, want) {
		t.Fatalf("previous = %q, skipped %q, %v; want none, skipped %q", path, skipped, err, want)
	}
}
