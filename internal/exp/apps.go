package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/splitc"
)

func init() {
	register(Experiment{
		ID:    "extD",
		Title: "Extension: application kernels on the characterized machine",
		Paper: "not in the paper; classic Split-C kernels whose version orderings echo the primitive costs, EM3D-style.",
		Run:   runApps,
	})
}

func appsRT(pes int) *splitc.Runtime {
	cfg := machine.DefaultConfig(pes)
	cfg.MemBytes = 2 << 20
	return splitc.NewRuntime(machine.New(cfg), splitc.DefaultConfig())
}

func runApps(o Options) []report.Table {
	perPE := 48
	if o.Quick {
		perPE = 24
	}
	rng := rand.New(rand.NewSource(1995))
	keys := make([][]uint64, 4)
	for pe := range keys {
		for i := 0; i < perPE; i++ {
			keys[pe] = append(keys[pe], rng.Uint64())
		}
	}

	const n = 16
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = rng.Float64()
		}
	}
	us := func(cycles int64) string { return fmt.Sprintf("%.1f", float64(cycles)*cpu.NSPerCycle/1e3) }

	// Every kernel run gets its own machine, so both tables and the
	// runs inside each are independent points.
	hist := func() report.Table {
		t := report.Table{
			Title:   "Histogram: three update strategies (4 PEs)",
			Headers: []string{"strategy", "cycles", "µs", "validated"},
		}
		methods := []apps.HistogramMethod{apps.HistLocalReduce, apps.HistAM, apps.HistRemoteRMW}
		results := sim.Points(len(methods), func(i int) apps.HistogramResult {
			rt := appsRT(4)
			defer rt.M.Eng.Shutdown()
			return apps.Histogram(rt, keys, 16, methods[i])
		})
		for i, res := range results {
			t.AddRow(methods[i].String(), res.Cycles, us(res.Cycles), res.Validated)
		}
		t.Note = "bulk-synchronous local counts win; shipping updates as active messages beats lock-protected remote read-modify-write"
		return t
	}
	other := func() report.Table {
		t := report.Table{
			Title:   "Sample sort and matrix multiply (4 PEs)",
			Headers: []string{"kernel", "size", "cycles", "µs", "validated"},
		}
		rows := sim.Points(2, func(i int) []any {
			rt := appsRT(4)
			defer rt.M.Eng.Shutdown()
			if i == 0 {
				ss := apps.SampleSort(rt, keys)
				return []any{"sample sort", fmt.Sprintf("%d keys", ss.Keys), ss.Cycles, us(ss.Cycles), ss.Validated}
			}
			mm := apps.MatMul(rt, a)
			return []any{"matmul", fmt.Sprintf("%dx%d", n, n), mm.Cycles, us(mm.Cycles), mm.Validated}
		})
		for _, r := range rows {
			t.AddRow(r...)
		}
		return t
	}
	return tables(hist, other)
}
