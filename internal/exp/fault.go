package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/em3d"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/splitc"
)

func init() {
	register(Experiment{
		ID:    "extF",
		Title: "Completion under injected faults: reliability-layer cost and recovery",
		Paper: "Beyond the paper: the T3D fabric never drops a packet, so the paper's runtime assumes perfect delivery. This experiment injects seeded transient faults and measures what end-to-end reliability (AM retransmission, write verification) costs.",
		Run:   runFault,
	})
}

// faultRates is the per-data-packet fault-rate sweep. Half of each rate
// drops the payload, half corrupts it.
var faultRates = []float64{0, 0.02, 0.05, 0.10}

func runFault(o Options) []report.Table {
	msgs, keysPer, em := 60, 40, em3d.Config{NodesPerPE: 32, Degree: 5, RemoteFrac: 0.4, Seed: 7, Iters: 2, Reliable: true}
	if o.Quick {
		msgs, keysPer, em.NodesPerPE = 30, 24, 20
	}
	return tables(
		func() report.Table { return amFaultTable(msgs) },
		func() report.Table { return sortFaultTable(keysPer) },
		func() report.Table { return em3dFaultTable(em) },
	)
}

func split(rate float64) fault.Config {
	return fault.Config{Seed: 7, DropRate: rate / 2, CorruptRate: rate / 2}
}

// amFaultTable streams reliable active messages across increasingly
// lossy fabrics: completion time and retransmission count per rate.
func amFaultTable(msgs int) report.Table {
	t := report.Table{
		Title:   fmt.Sprintf("Reliable active messages: %d-message stream vs fault rate (2 PEs)", msgs),
		Headers: []string{"fault rate", "cycles", "slowdown", "retransmits", "injected"},
	}
	type point struct {
		end                   sim.Time
		retransmits, injected int64
	}
	pts := sim.Points(len(faultRates), func(i int) point {
		m := machine.New(machine.DefaultConfig(2))
		defer m.Eng.Shutdown()
		in := fault.Inject(m, split(faultRates[i]))
		rt := splitc.NewRuntime(m, splitc.DefaultConfig())
		//lint:allow sharedstate written only on PE 1: the early return on PE 0 is a PE guard expressed as control flow the pass does not model
		var retransmits int64
		end := rt.Run(func(c *splitc.Ctx) {
			ep := am.New(c, am.ReliableConfig())
			ep.Register(am.HUser, func(*splitc.Ctx, int, [4]uint64) {})
			if c.MyPE() == 0 {
				ep.PollUntil(func() bool { return int(ep.Received) == msgs })
				return
			}
			for i := 0; i < msgs; i++ {
				ep.Send(0, am.HUser, [4]uint64{uint64(i)})
			}
			ep.Flush()
			retransmits = ep.Retransmits
		})
		return point{end, retransmits, in.Drops + in.Corrupts}
	})
	for i, p := range pts {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%%", faultRates[i]*100),
			fmt.Sprintf("%d", p.end),
			fmt.Sprintf("%.2fx", float64(p.end)/float64(pts[0].end)),
			fmt.Sprintf("%d", p.retransmits),
			fmt.Sprintf("%d", p.injected),
		})
	}
	t.Note = "sequence numbers + checksums detect damage; go-back-N retransmission with exponential backoff recovers it"
	return t
}

// sortFaultTable runs the full sample-sort application on the reliable
// runtime at each fault rate.
func sortFaultTable(keysPer int) report.Table {
	t := report.Table{
		Title:   fmt.Sprintf("Sample sort under faults: %d keys/PE (4 PEs, reliable runtime)", keysPer),
		Headers: []string{"fault rate", "cycles", "slowdown", "rewrites", "injected", "sorted"},
	}
	type point struct {
		res                apps.SampleSortResult
		rewrites, injected int64
	}
	pts := sim.Points(len(faultRates), func(i int) point {
		cfg := machine.DefaultConfig(4)
		cfg.MemBytes = 2 << 20
		m := machine.New(cfg)
		defer m.Eng.Shutdown()
		in := fault.Inject(m, split(faultRates[i]))
		rt := splitc.NewRuntime(m, splitc.ReliableConfig())
		rng := rand.New(rand.NewSource(3))
		res := apps.SampleSort(rt, randFaultKeys(rng, 4, keysPer))
		return point{res, rt.Rewrites, in.Drops + in.Corrupts}
	})
	for i, p := range pts {
		ok := "yes"
		if !p.res.Validated {
			ok = "NO"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%%", faultRates[i]*100),
			fmt.Sprintf("%d", p.res.Cycles),
			fmt.Sprintf("%.2fx", float64(p.res.Cycles)/float64(pts[0].res.Cycles)),
			fmt.Sprintf("%d", p.rewrites),
			fmt.Sprintf("%d", p.injected),
			ok,
		})
	}
	t.Note = "rewrites are damaged words caught by read-back verification at Sync/AllStoreSync/Barrier"
	return t
}

// em3dFaultTable runs the EM3D Put version (one-way stores, the
// faultable path) at each fault rate.
func em3dFaultTable(cfg em3d.Config) report.Table {
	t := report.Table{
		Title: fmt.Sprintf("EM3D Put under faults: %d nodes/PE, degree %d, %.0f%% remote (4 PEs)",
			cfg.NodesPerPE, cfg.Degree, cfg.RemoteFrac*100),
		Headers: []string{"fault rate", "cycles", "slowdown", "rewrites", "validated"},
	}
	results := sim.Points(len(faultRates), func(i int) em3d.Result {
		m := em3d.NewMachine(4)
		defer m.Eng.Shutdown()
		fault.Inject(m, split(faultRates[i]))
		return em3d.Run(m, cfg, em3d.Put, em3d.DefaultKnobs())
	})
	for i, res := range results {
		ok := "yes"
		if !res.Validated {
			ok = "NO"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%%", faultRates[i]*100),
			fmt.Sprintf("%d", res.Cycles),
			fmt.Sprintf("%.2fx", float64(res.Cycles)/float64(results[0].Cycles)),
			fmt.Sprintf("%d", res.Rewrites),
			ok,
		})
	}
	t.Note = "the physics must validate at every rate; slowdown is the price of end-to-end reliability"
	return t
}

func randFaultKeys(rng *rand.Rand, pes, perPE int) [][]uint64 {
	out := make([][]uint64, pes)
	for pe := range out {
		for i := 0; i < perPE; i++ {
			out[pe] = append(out[pe], rng.Uint64()%(1<<40))
		}
	}
	return out
}
