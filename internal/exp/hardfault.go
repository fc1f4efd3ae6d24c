package exp

import (
	"errors"
	"fmt"

	"repro/internal/em3d"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/net"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/splitc"
)

func init() {
	register(Experiment{
		ID:    "extG",
		Title: "Hard failures: dead links vs completion, rerouted hops, checkpoint/rollback recovery",
		Paper: "Beyond the paper: the T3D assumes its fabric and nodes never die. This experiment kills links and nodes permanently mid-run and measures what fault-aware re-routing and barrier-aligned checkpoint/rollback cost — completion must stay bit-identical to the fault-free run.",
		Run:   runHardFault,
	})
}

func runHardFault(o Options) []report.Table {
	em := em3d.Config{NodesPerPE: 24, Degree: 4, RemoteFrac: 0.4, Seed: 7, Iters: 2, Reliable: true}
	if o.Quick {
		em.NodesPerPE = 16
	}
	return tables(
		func() report.Table { return deadLinkTable(em) },
		func() report.Table { return rollbackTable(em) },
		func() report.Table { return partitionTable(em) },
	)
}

// em3dHardRun executes one recoverable EM3D Put run under the given
// fault config and returns the machine, already shut down, for
// fabric-level stats.
func em3dHardRun(cfg em3d.Config, fcfg fault.Config) (em3d.Result, splitc.RecoveryStats, *machine.T3D, error) {
	m := em3d.NewMachine(4)
	defer m.Eng.Shutdown()
	in := fault.Inject(m, fcfg)
	res, stats, err := em3d.RunRecoverable(m, cfg, em3d.Put, em3d.DefaultKnobs(), splitc.RecoveryConfig{}, in)
	return res, stats, m, err
}

func identical(got, want uint64) string {
	if got == want {
		return "yes"
	}
	return "NO"
}

// deadLinkTable sweeps permanent link failures: completion time,
// rerouted-packet count, and extra-hop inflation, with the physics
// required to stay bit-identical throughout.
func deadLinkTable(cfg em3d.Config) report.Table {
	t := report.Table{
		Title:   fmt.Sprintf("EM3D Put vs permanent link faults: %d nodes/PE (4 PEs, recoverable runtime)", cfg.NodesPerPE),
		Headers: []string{"dead links", "cycles", "slowdown", "rerouted pkts", "extra hops", "bit-identical"},
	}
	clean, _, _, err := em3dHardRun(cfg, fault.Config{})
	if err != nil {
		panic(fmt.Sprintf("exp: fault-free recoverable run failed: %v", err))
	}
	// Faults land in the first half of the fault-free runtime, so every
	// scheduled failure fires before completion.
	horizon := clean.Cycles / 2
	rows := sim.Points(4, func(k int) []string {
		fcfg := fault.Config{}
		if k > 0 {
			// Seed 18's first three link draws are distinct +x/+y links
			// on the 2x2x1 torus, so each sweep step severs one more
			// wire that dimension-order traffic actually uses (on a
			// 2-ring the tie between directions resolves forward, and a
			// z draw would be a self-loop no-op).
			fcfg = fault.Config{Seed: 18, HardLinkFaults: k, Horizon: horizon}
		}
		res, _, m, err := em3dHardRun(cfg, fcfg)
		if err != nil {
			panic(fmt.Sprintf("exp: run with %d dead links failed: %v", k, err))
		}
		pkts, extra := m.Net.RerouteStats()
		return []string{
			fmt.Sprintf("%d", m.Net.DeadLinks()),
			fmt.Sprintf("%d", res.Cycles),
			fmt.Sprintf("%.2fx", float64(res.Cycles)/float64(clean.Cycles)),
			fmt.Sprintf("%d", pkts),
			fmt.Sprintf("%d", extra),
			identical(res.Digest, clean.Digest),
		}
	})
	t.Rows = append(t.Rows, rows...)
	t.Note = "deterministic deflection/BFS re-routing carries traffic around dead links; on 2-rings the detour has equal length, so inflation shows in rerouted packets before extra hops"
	return t
}

// rollbackTable kills nodes (and a link alongside) mid-run: the
// recovery layer rolls every PE back to the last barrier-aligned
// checkpoint and replays the epoch.
func rollbackTable(cfg em3d.Config) report.Table {
	t := report.Table{
		Title:   "EM3D Put under node hard-faults: checkpoint/rollback recovery (4 PEs)",
		Headers: []string{"fault plan", "crashes", "rollbacks", "checkpoints", "cycles", "slowdown", "bit-identical"},
	}
	clean, _, _, err := em3dHardRun(cfg, fault.Config{})
	if err != nil {
		panic(fmt.Sprintf("exp: fault-free recoverable run failed: %v", err))
	}
	horizon := clean.Cycles / 2
	plans := []struct {
		name string
		fcfg fault.Config
	}{
		{"none", fault.Config{}},
		{"1 node crash", fault.Config{Seed: 5, HardNodeFaults: 1, Horizon: horizon}},
		{"1 crash + 1 dead link", fault.Config{Seed: 5, HardLinkFaults: 1, HardNodeFaults: 1, Horizon: horizon}},
		{"crash + link + 2% drops", fault.Config{Seed: 5, DropRate: 0.02, HardLinkFaults: 1, HardNodeFaults: 1, Horizon: horizon}},
	}
	rows := sim.Points(len(plans), func(i int) []string {
		p := plans[i]
		res, stats, _, err := em3dHardRun(cfg, p.fcfg)
		if err != nil {
			panic(fmt.Sprintf("exp: plan %q failed: %v", p.name, err))
		}
		return []string{
			p.name,
			fmt.Sprintf("%d", stats.NodeCrashes),
			fmt.Sprintf("%d", stats.Rollbacks),
			fmt.Sprintf("%d", stats.Checkpoints),
			fmt.Sprintf("%d", res.Cycles),
			fmt.Sprintf("%.2fx", float64(res.Cycles)/float64(clean.Cycles)),
			identical(res.Digest, clean.Digest),
		}
	})
	t.Rows = append(t.Rows, rows...)
	t.Note = "a crash zeroes the node's DRAM and cold-starts its cache; rollback restores the last checkpoint on every PE and replays the epoch — the slowdown is the replay"
	return t
}

// partitionTable disconnects the torus outright: every outgoing link of
// PE 0 dies. The run must fail fast with net.ErrPartitioned — an
// explicit, inspectable error — never hang.
func partitionTable(cfg em3d.Config) report.Table {
	t := report.Table{
		Title:   "Disconnected torus: explicit failure, not a hang (4 PEs)",
		Headers: []string{"fault plan", "outcome"},
	}
	s := &fault.Schedule{Nodes: 4}
	for dir := 0; dir < 6; dir++ {
		s.HardLinks = append(s.HardLinks, fault.HardLink{Node: 0, Dir: dir, At: sim.Time(3000 + dir)})
	}
	m := em3d.NewMachine(4)
	defer m.Eng.Shutdown()
	fault.NewInjector(s).Attach(m)
	_, _, err := em3d.RunRecoverable(m, cfg, em3d.Put, em3d.DefaultKnobs(), splitc.RecoveryConfig{}, nil)
	outcome := "COMPLETED (unexpected: partition went unnoticed)"
	if errors.Is(err, net.ErrPartitioned) {
		outcome = "ErrPartitioned returned at the first unreachable access"
	} else if err != nil {
		outcome = fmt.Sprintf("failed without partition diagnosis: %v", err)
	}
	t.Rows = append(t.Rows, []string{"all 6 links out of PE 0 dead at t≈3000", outcome})
	t.Note = "hard faults never heal, so a severed pair is permanent: the shell checks reachability on every remote transaction and unwinds with an error instead of waiting for a response that cannot arrive"
	return t
}
