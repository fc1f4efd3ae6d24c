package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/splitc"
)

// bulkSizes are the transfer sizes of Figure 8.
func bulkSizes(o Options) []int64 {
	max := int64(1 << 20)
	if o.Quick {
		max = 256 << 10
	}
	var out []int64
	for n := int64(8); n <= max; n *= 4 {
		out = append(out, n)
	}
	return out
}

// bulkReadMBs measures one (mechanism, size) bulk-read bandwidth.
func bulkReadMBs(mech splitc.Mechanism, n int64) float64 {
	rt := splitc.NewRuntime(machine.New(machine.DefaultConfig(2)), splitc.DefaultConfig())
	defer rt.M.Eng.Shutdown()
	var cycles sim.Time
	rt.RunOn(0, func(c *splitc.Ctx) {
		c.Alloc(n)
		dst := c.Alloc(n)
		src := splitc.Global(1, rt.Cfg.HeapBase)
		c.BulkReadVia(mech, dst, src, n) // warm
		reps := 1
		if n <= 4<<10 {
			reps = 8
		}
		start := c.P.Now()
		for r := 0; r < reps; r++ {
			c.BulkReadVia(mech, dst, src, n)
		}
		cycles = (c.P.Now() - start) / sim.Time(reps)
	})
	return core.Bandwidth(n, cycles)
}

// bulkWriteMBs measures one (mechanism, size) bulk-write bandwidth.
func bulkWriteMBs(mech splitc.Mechanism, n int64) float64 {
	rt := splitc.NewRuntime(machine.New(machine.DefaultConfig(2)), splitc.DefaultConfig())
	defer rt.M.Eng.Shutdown()
	var cycles sim.Time
	rt.RunOn(0, func(c *splitc.Ctx) {
		src := c.Alloc(n)
		dst := c.Alloc(n)
		g := splitc.Global(1, dst)
		c.BulkWriteVia(mech, g, src, n) // warm
		reps := 1
		if n <= 4<<10 {
			reps = 8
		}
		start := c.P.Now()
		for r := 0; r < reps; r++ {
			c.BulkWriteVia(mech, g, src, n)
		}
		cycles = (c.P.Now() - start) / sim.Time(reps)
	})
	return core.Bandwidth(n, cycles)
}

// bulkTable measures every (size, mechanism) bandwidth point and lays
// them out one row per size.
func bulkTable(title string, headers []string, sizes []int64, mechs []splitc.Mechanism, mbs func(splitc.Mechanism, int64) float64) report.Table {
	nm := len(mechs)
	cells := sim.Points(len(sizes)*nm, func(i int) string {
		return fmt.Sprintf("%.1f", mbs(mechs[i%nm], sizes[i/nm]))
	})
	t := report.Table{Title: title, Headers: headers}
	for si, n := range sizes {
		row := []string{report.Bytes(n)}
		t.Rows = append(t.Rows, append(row, cells[si*nm:(si+1)*nm]...))
	}
	return t
}

func init() {
	register(Experiment{
		ID:    "fig8",
		Title: "Bulk transfer bandwidth by mechanism (MB/s)",
		Paper: "reads: uncached best at 8 B, cached best only at 32–64 B, prefetch best 128 B–16 KB, BLT best beyond (peak ≈140 MB/s); writes: stores beat the BLT at every size, peaking ≈90 MB/s; Split-C follows the winner with the crossover at ≈16 KB.",
		Run: func(o Options) []report.Table {
			sizes := bulkSizes(o)
			return tables(
				func() report.Table {
					return bulkTable("Figure 8 (left): bulk read bandwidth (MB/s)",
						[]string{"bytes", "uncached", "cached", "prefetch", "BLT", "Split-C"}, sizes,
						[]splitc.Mechanism{splitc.MechUncached, splitc.MechCached, splitc.MechPrefetch, splitc.MechBLT, splitc.MechAuto},
						bulkReadMBs)
				},
				func() report.Table {
					return bulkTable("Figure 8 (right): bulk write bandwidth (MB/s)",
						[]string{"bytes", "stores", "BLT", "Split-C"}, sizes,
						[]splitc.Mechanism{splitc.MechStore, splitc.MechBLT, splitc.MechAuto},
						bulkWriteMBs)
				},
			)
		},
	})
}
