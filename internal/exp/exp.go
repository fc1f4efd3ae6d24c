// Package exp defines the reproduction experiments: one per figure and
// table of the paper's evaluation. Each experiment regenerates the
// corresponding data series with the probe framework (package core), the
// Split-C runtime (package splitc), and the EM3D kernel (package em3d),
// and renders it with package report.
//
// IDs follow the paper: fig1, fig2, tab2, tab3, fig4, fig5, fig6, fig7,
// fig8, tab7, fig9, plus "hop" for the per-hop network measurement
// quoted in §4.2.
package exp

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/sim"
)

// Options tunes experiment scale.
type Options struct {
	// Quick trims sweeps (smaller arrays, fewer sizes, smaller EM3D
	// graphs) so the whole suite runs in tens of seconds. The full-scale
	// runs reproduce the paper's exact parameters.
	Quick bool
}

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	ID    string
	Title string
	Paper string // what the paper reports, for EXPERIMENTS.md
	Run   func(o Options) []report.Table
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the experiments in paper order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return order(out[i].ID) < order(out[j].ID) })
	return out
}

func order(id string) int {
	for i, k := range []string{"fig1", "fig2", "tab2", "tab3", "fig4", "fig5", "fig6", "fig7", "fig8", "tab7", "hop", "fig9", "extF", "extG", "extH", "extI"} {
		if k == id {
			return i
		}
	}
	return 100
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAndRender executes the experiment and writes its tables.
func (e Experiment) RunAndRender(w io.Writer, o Options) {
	fmt.Fprintf(w, "### %s — %s\n", e.ID, e.Title)
	if e.Paper != "" {
		fmt.Fprintf(w, "paper: %s\n\n", e.Paper)
	}
	for _, t := range e.Run(o) {
		t.Render(w)
	}
}

// tables builds an experiment's independent tables concurrently
// (sim.Points) and returns them in argument order.
func tables(build ...func() report.Table) []report.Table {
	return sim.Points(len(build), func(i int) report.Table { return build[i]() })
}

// newT3D builds the standard 2-PE measurement machine.
func newT3D() *machine.T3D { return machine.New(machine.DefaultConfig(2)) }
