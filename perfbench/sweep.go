package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/report"
)

// runSweep is the paper-sweep workload: every registered experiment in
// Quick mode, in registry order. The experiments take no seed, so the
// sweep is the same work on every run. A run makes exactly one sweep,
// whatever its budget: the experiments never shut their machines down,
// so every sweep leaves about 2.4 GB of simulated DRAM resident.
func runSweep(r *run) error {
	exps := exp.All()
	// Set-up: building the 2-PE / 16 MB machine that sweep points build,
	// setupMachines at a time.
	const setupMachines = 4
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t := time.Now()
		var ms []*machine.T3D
		for j := 0; j < setupMachines; j++ {
			ms = append(ms, machine.New(machine.DefaultConfig(2)))
		}
		setups = append(setups, time.Since(t).Seconds())
		for _, m := range ms {
			m.Eng.Shutdown()
		}
	}
	r.setE2E("setup_s", median(setups), len(setups))
	if err := beginTimed(); err != nil {
		return err
	}

	a0, t0 := allocated(), time.Now()
	root := r.tr.begin("bench.sweep", -1, 0)
	for _, e := range exps {
		id := r.tr.begin("exp."+e.ID, root, 0)
		tables := e.Run(exp.Options{Quick: true})
		r.tr.end(id)
		want, ok := sweepGolden[e.ID]
		got := tablesDigest(tables)
		r.check(ok && got == want, "%s: tables digest %s, recorded %q", e.ID, got, want)
	}
	r.tr.end(root)
	wall := time.Since(t0).Seconds()
	r.setE2E("wall_s", wall, 1)
	r.setE2E("alloc_mb", float64(allocated()-a0)/mb, 1)
	if r.trace {
		for _, e := range exps {
			r.setLayer("exp."+e.ID+"_s", median(r.tr.durations("exp."+e.ID)))
		}
		r.setLayer("trace.wall_s", wall)
	}
	return nil
}

// tablesDigest fingerprints an experiment's output: FNV-1a over each
// table's title and CSV rendering.
func tablesDigest(tables []report.Table) string {
	var buf bytes.Buffer
	for i := range tables {
		fmt.Fprintln(&buf, tables[i].Title)
		tables[i].CSV(&buf)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return fmt.Sprintf("%016x", h.Sum64())
}

// recordSweep prints the digests of one sweep as Go source for
// sweepGolden.
func recordSweep() {
	fmt.Println("var sweepGolden = map[string]string{")
	for _, e := range exp.All() {
		fmt.Printf("\t%q: %q,\n", e.ID, tablesDigest(e.Run(exp.Options{Quick: true})))
	}
	fmt.Println("}")
}
