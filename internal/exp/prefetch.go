package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/splitc"
)

func init() {
	register(Experiment{
		ID:    "fig6",
		Title: "Prefetch latency vs group size, and the §5.2 cost breakdown",
		Paper: "single prefetch ≈15 cy slower than a blocking read; groups of 16 reach ≈31 cy per prefetch+pop; breakdown: issue 4, MB 4, round trip 80, pop 23.",
		Run: func(o Options) []report.Table {
			groups := []int{1, 2, 4, 8, 12, 16}
			reps := 32
			if o.Quick {
				reps = 16
			}
			raw := core.PrefetchProbe(newT3D, groups, reps)
			t := report.Table{
				Title:   "Figure 6: average latency per prefetched word (ns)",
				Headers: []string{"group", "raw prefetch", "Split-C get"},
			}
			get := splitcGetSeries(groups, reps)
			for i, pt := range raw {
				t.AddRow(pt.Group, fmt.Sprintf("%.1f", pt.AvgNSPerOp), fmt.Sprintf("%.1f", get[i]))
			}

			bd := report.Table{
				Title:   "§5.2 prefetch cost breakdown (cycles)",
				Headers: []string{"component", "model", "paper"},
			}
			cfg := machine.DefaultConfig(2)
			bd.AddRow("prefetch issue", fmt.Sprint(cfg.Costs.FetchIssue), "4")
			bd.AddRow("memory barrier", fmt.Sprint(cfg.Costs.MBIssue), "4")
			rt := cfg.Shell.FetchInject + 2 + cfg.Shell.RemoteReadProc + 22 +
				cfg.Shell.RespInject + 2 + cfg.Shell.RespAccept + cfg.Shell.PrefetchFillExtra
			bd.AddRow("round trip", fmt.Sprint(rt), "80")
			bd.AddRow("prefetch pop", fmt.Sprint(cfg.Shell.PopCost), "23")
			return []report.Table{t, bd}
		},
	})
}

// splitcGetSeries measures the Split-C get (annex setup, table
// management, pop, local store) per group size.
func splitcGetSeries(groups []int, reps int) []float64 {
	return sim.Points(len(groups), func(gi int) float64 {
		g := groups[gi]
		rt := splitc.NewRuntime(machine.New(machine.DefaultConfig(2)), splitc.DefaultConfig())
		defer rt.M.Eng.Shutdown()
		var avg float64
		rt.RunOn(0, func(c *splitc.Ctx) {
			dst := c.Alloc(int64(g) * 8)
			run := func(base int64) {
				for i := 0; i < g; i++ {
					c.Get(dst+int64(i)*8, splitc.Global(1, base+int64(i)*8))
				}
				c.Sync()
			}
			run(rt.Cfg.HeapBase)
			start := c.P.Now()
			for r := 0; r < reps; r++ {
				run(rt.Cfg.HeapBase + int64(r*g)*8%(8<<10))
			}
			avg = float64(c.P.Now()-start) / float64(reps*g) * cpu.NSPerCycle
		})
		return avg
	})
}
