package exp

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
)

func sweepCfg(o Options) core.SawtoothConfig {
	cfg := core.DefaultSawtoothConfig()
	if o.Quick {
		cfg.Sizes = []int64{4 << 10, 8 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
		cfg.MinAccesses = 192
	}
	return cfg
}

// profileTable renders a Profile as a stride × size grid of nanoseconds,
// the textual form of the paper's latency figures.
func profileTable(title string, prof core.Profile) report.Table {
	strides := map[int64]bool{}
	for _, c := range prof.Curves {
		for _, p := range c.Points {
			strides[p.Stride] = true
		}
	}
	var xs []int64
	for s := range strides {
		xs = append(xs, s)
	}
	slices.Sort(xs)
	t := report.Table{Title: title}
	t.Headers = append(t.Headers, "stride")
	for _, c := range prof.Curves {
		t.Headers = append(t.Headers, report.Bytes(c.ArraySize))
	}
	for _, st := range xs {
		row := []string{report.Bytes(st)}
		for _, c := range prof.Curves {
			cell := ""
			for _, p := range c.Points {
				if p.Stride == st {
					cell = fmt.Sprintf("%.1f", p.AvgNS)
				}
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Local read latency: T3D node vs DEC Alpha workstation (ns/read)",
		Paper: "L1 hit 6.67 ns; T3D memory 145 ns (22 cy), off-page 205 ns, same-bank 264 ns; workstation shows an L2 plateau and a 300 ns memory time with a TLB inflection at 8 KB strides; no L2 on the T3D.",
		Run: func(o Options) []report.Table {
			cfg := sweepCfg(o)
			return tables(
				func() report.Table {
					return profileTable("Figure 1 (left): CRAY T3D local read latency (ns)", core.Sawtooth(newT3D, core.LocalRead(), cfg))
				},
				func() report.Table {
					return profileTable("Figure 1 (right): DEC Alpha workstation read latency (ns)", core.SawtoothWorkstation(core.WSRead(), cfg))
				},
			)
		},
	})

	register(Experiment{
		ID:    "fig2",
		Title: "Local write cost (ns/write)",
		Paper: "≈20 ns at small strides (write merging), ≈35 ns at the 32 B line stride (4-entry buffer drain rate), off-page inflection at 16 KB strides.",
		Run: func(o Options) []report.Table {
			cfg := sweepCfg(o)
			prof := core.Sawtooth(newT3D, core.LocalWrite(), cfg)
			return []report.Table{profileTable("Figure 2: CRAY T3D local write cost (ns)", prof)}
		},
	})

	register(Experiment{
		ID:    "tab2",
		Title: "Gray-box inference of the local memory system (§2 summary)",
		Paper: "8 KB direct-mapped L1 with 32 B lines; 22-cycle memory access; no L2; huge pages (no TLB signature); 4-entry merging write buffer.",
		Run: func(o Options) []report.Table {
			cfg := sweepCfg(o)
			probes := []core.Probe{core.LocalRead(), core.LocalWrite()}
			profs := sim.Points(len(probes), func(i int) core.Profile { return core.Sawtooth(newT3D, probes[i], cfg) })
			read, write := profs[0], profs[1]
			inf := core.InferMemory(&read)
			plateau, _ := write.At(cfg.Sizes[len(cfg.Sizes)-1], 32)
			t := report.Table{
				Title:   "Table: parameters inferred from the probes vs ground truth",
				Headers: []string{"parameter", "inferred", "paper/actual"},
			}
			t.AddRow("L1 hit time (ns)", fmt.Sprintf("%.1f", inf.CacheHitNS), "6.67")
			t.AddRow("L1 size", report.Bytes(inf.CacheSize), "8K")
			t.AddRow("L1 line size", fmt.Sprint(inf.LineSize), "32")
			t.AddRow("memory access (ns)", fmt.Sprintf("%.1f", inf.MemoryNS), "145")
			t.AddRow("direct mapped", fmt.Sprint(inf.DirectMapped), "true")
			t.AddRow("L2 present", fmt.Sprint(inf.HasL2), "false")
			t.AddRow("write buffer entries", fmt.Sprint(core.InferWriteBufferDepth(inf.MemoryNS, plateau)), "4")
			return []report.Table{t}
		},
	})
}
