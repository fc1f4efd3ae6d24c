package exp

import (
	"fmt"
	"math/rand"

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
		ID:    "extI",
		Title: "Data integrity: memory bit flips, SECDED ECC + scrubbing, poison, audit-triggered rollback",
		Paper: "Beyond the paper: the T3D's DRAM carries SECDED check bits the paper never exercises. This experiment flips bits in memory mid-run and measures the full defense ladder — ECC correction, background scrubbing, poison on uncorrectable words, end-to-end bulk-transfer audits, and checkpoint rollback — against the raw-DRAM baseline where the same flips corrupt silently.",
		Run:   runIntegrity,
	})
}

func runIntegrity(o Options) []report.Table {
	em := em3d.Config{NodesPerPE: 24, Degree: 4, RemoteFrac: 0.4, Seed: 7, Iters: 2, Reliable: true, Audit: true}
	keysPer := 40
	if o.Quick {
		em.NodesPerPE = 16
		keysPer = 24
	}
	return tables(
		func() report.Table { return memRateTable(em) },
		func() report.Table { return defenseLadderTable(em) },
		scrubPairingTable,
		func() report.Table { return auditOverheadTable(em, keysPer) },
	)
}

// aimAtData confines flips to the first 96 words of the heap — EM3D's H
// values, E values, and edge weights — so the sweep measures live-data
// strikes, not flips into megabytes of untouched DRAM. Pure data, no
// pointers: the raw-DRAM arm corrupts physics, never the runtime.
func aimAtData(f *fault.Config) {
	f.MemFaultBase = splitc.DefaultConfig().HeapBase / 8
	f.MemFaultWords = 96
}

// flipRate inverts the injector's count formula (expected flips per PE
// per million cycles) so a sweep can be labeled by flip count.
func flipRate(flips int, horizon sim.Time, nodes int) float64 {
	if flips == 0 || horizon <= 0 {
		return 0
	}
	return float64(flips) * 1e6 / (float64(horizon) * float64(nodes))
}

// em3dIntegrityRun executes one recoverable EM3D Bulk run (the version
// whose ghost exchange rides audited bulk transfers) with the integrity
// stack armed, returning the machine (already shut down) and injector
// for fault-level stats. MaxRollbacks is raised above the default: every
// uncorrectable word alive at a checkpoint forces its own rollback.
func em3dIntegrityRun(cfg em3d.Config, fcfg fault.Config) (em3d.Result, splitc.RecoveryStats, *machine.T3D, *fault.Injector, error) {
	m := em3d.NewMachine(4)
	defer m.Eng.Shutdown()
	in := fault.Inject(m, fcfg)
	res, stats, err := em3d.RunRecoverable(m, cfg, em3d.Bulk, em3d.DefaultKnobs(), splitc.RecoveryConfig{MaxRollbacks: 64}, in)
	return res, stats, m, in, err
}

// memRateTable sweeps the memory-fault rate over recoverable EM3D with
// ECC, scrubbing, and audits all on: every row must complete with zero
// silent reads and physics bit-identical to the fault-free run.
func memRateTable(cfg em3d.Config) report.Table {
	t := report.Table{
		Title:   fmt.Sprintf("EM3D Bulk vs memory bit flips: %d nodes/PE (4 PEs, ECC + scrub + audit)", cfg.NodesPerPE),
		Headers: []string{"flips (DRAM+L1)", "repaired", "poisoned words", "rollbacks", "cycles", "slowdown", "silent reads", "bit-identical"},
	}
	clean, _, _, _, err := em3dIntegrityRun(cfg, fault.Config{})
	if err != nil {
		panic(fmt.Sprintf("exp: fault-free integrity run failed: %v", err))
	}
	// Flips land in the first half of the fault-free runtime, so every
	// scheduled strike fires even on the no-rollback rows.
	horizon := clean.Cycles / 2
	flipCounts := []int{0, 4, 12, 32}
	rows := sim.Points(len(flipCounts), func(i int) []string {
		flips := flipCounts[i]
		fcfg := fault.Config{}
		if flips > 0 {
			fcfg = fault.Config{
				Seed:          23,
				MemFaultRate:  flipRate(flips, horizon, 4),
				MemMultiFrac:  0.25,
				Scrub:         true,
				ScrubInterval: horizon / 16,
				Horizon:       horizon,
			}
			aimAtData(&fcfg)
		}
		res, stats, m, in, err := em3dIntegrityRun(cfg, fcfg)
		if err != nil {
			panic(fmt.Sprintf("exp: run with %d flips failed: %v", flips, err))
		}
		integ := fault.MemIntegrity(m)
		return []string{
			fmt.Sprintf("%d", in.MemFlips+in.CacheFlips),
			fmt.Sprintf("%d", integ.Corrected+integ.Scrubbed),
			fmt.Sprintf("%d", integ.Poisoned),
			fmt.Sprintf("%d", stats.Rollbacks),
			fmt.Sprintf("%d", res.Cycles),
			fmt.Sprintf("%.2fx", float64(res.Cycles)/float64(clean.Cycles)),
			fmt.Sprintf("%d", integ.SilentReads),
			identical(res.Digest, clean.Digest),
		}
	})
	t.Rows = append(t.Rows, rows...)
	t.Note = "singles are repaired by the ECC read pipe or the scrubber; multi-bit words poison their readers and roll the epoch back to the last checkpoint — silent reads must stay zero"
	return t
}

// defenseLadderTable holds the flip count fixed and strips the defenses
// away layer by layer, down to the raw-DRAM baseline where the same
// strikes corrupt physics with no trace but the silent-read counter.
func defenseLadderTable(cfg em3d.Config) report.Table {
	t := report.Table{
		Title:   "Same 12 flips, three defense levels (EM3D Bulk, 4 PEs)",
		Headers: []string{"defenses", "silent reads", "poisoned words", "rollbacks", "outcome", "bit-identical"},
	}
	clean, _, _, _, err := em3dIntegrityRun(cfg, fault.Config{})
	if err != nil {
		panic(fmt.Sprintf("exp: fault-free integrity run failed: %v", err))
	}
	horizon := clean.Cycles / 2
	base := fault.Config{
		Seed:         23,
		MemFaultRate: flipRate(12, horizon, 4),
		MemMultiFrac: 0.25,
		Horizon:      horizon,
	}
	aimAtData(&base)
	arms := []struct {
		name  string
		audit bool
		mod   func(*fault.Config)
	}{
		{"none (raw DRAM)", false, func(f *fault.Config) { f.MemECCOff = true }},
		{"ECC + scrub", false, func(f *fault.Config) { f.Scrub = true; f.ScrubInterval = horizon / 16 }},
		{"ECC + scrub + audit", true, func(f *fault.Config) { f.Scrub = true; f.ScrubInterval = horizon / 16 }},
	}
	rows := sim.Points(len(arms), func(i int) []string {
		arm := arms[i]
		acfg := cfg
		acfg.Audit = arm.audit
		fcfg := base
		arm.mod(&fcfg)
		res, stats, m, _, err := em3dIntegrityRun(acfg, fcfg)
		integ := fault.MemIntegrity(m)
		outcome, bit := "completed", identical(res.Digest, clean.Digest)
		if err != nil {
			outcome, bit = fmt.Sprintf("FAILED: %v", err), "—"
		} else if !res.Validated {
			outcome = "completed, physics WRONG"
		}
		return []string{
			arm.name,
			fmt.Sprintf("%d", integ.SilentReads),
			fmt.Sprintf("%d", integ.Poisoned),
			fmt.Sprintf("%d", stats.Rollbacks),
			outcome,
			bit,
		}
	})
	t.Rows = append(t.Rows, rows...)
	t.Note = "with ECC off the flips are consumed silently (every such read counts); with the stack armed the same strikes are corrected, poisoned, or rolled back — never silent"
	return t
}

// scrubPairingTable isolates the scrubber's reason to exist: two
// correctable single-bit faults in the same word pair into an
// uncorrectable double. Many singles strike a 64-word hot set on an
// otherwise idle node; the faster the scrub sweep, the fewer latent
// singles survive long enough to pair.
func scrubPairingTable() report.Table {
	const horizon = sim.Time(1 << 20)
	const flips = 96
	t := report.Table{
		Title:   fmt.Sprintf("Scrub interval vs fault pairing: %d single-bit flips into a %d-word hot set (1 PE, idle)", flips, 64),
		Headers: []string{"scrub interval", "flips", "scrubbed", "paired (uncorrectable)", "latent faults"},
	}
	intervals := []struct {
		name     string
		interval sim.Time
	}{
		{"off", 0},
		{"horizon/64", horizon / 64},
		{"horizon/512", horizon / 512},
	}
	rows := sim.Points(len(intervals), func(i int) []string {
		p := intervals[i]
		fcfg := fault.Config{
			Seed:          31,
			MemFaultRate:  flipRate(flips, horizon, 1),
			MemFaultWords: 64,
			Horizon:       horizon,
		}
		if p.interval > 0 {
			fcfg.Scrub = true
			fcfg.ScrubInterval = p.interval
		}
		// A small memory (8 scrub stripes) lets the row-at-a-time sweep
		// revisit the hot set many times within the horizon.
		mcfg := machine.DefaultConfig(1)
		mcfg.MemBytes = 128 << 10
		m := machine.New(mcfg)
		defer m.Eng.Shutdown()
		in := fault.Inject(m, fcfg)
		rt := splitc.NewRuntime(m, splitc.DefaultConfig())
		rt.Run(func(c *splitc.Ctx) { c.Compute(horizon + 100) })
		integ := fault.MemIntegrity(m)
		latent := 0
		for _, n := range m.Nodes {
			latent += n.DRAM.LatentWords()
		}
		return []string{
			p.name,
			fmt.Sprintf("%d", in.MemFlips),
			fmt.Sprintf("%d", integ.Scrubbed),
			fmt.Sprintf("%d", integ.MultiWords),
			fmt.Sprintf("%d", latent),
		}
	})
	t.Rows = append(t.Rows, rows...)
	t.Note = "nothing reads this memory, so the scrubber is the only repair path; SECDED cannot fix a pair, which is why scrub frequency — not correction strength — bounds the uncorrectable rate"
	return t
}

// auditOverheadTable prices the end-to-end audit on fault-free runs: the
// checksum walk re-reads every bulk region through uncached remote word
// reads, so the overhead is the goodput cost of distrusting the memory
// system.
func auditOverheadTable(em em3d.Config, keysPer int) report.Table {
	t := report.Table{
		Title:   "End-to-end audit overhead, fault-free (4 PEs, recoverable runtime)",
		Headers: []string{"workload", "audit", "cycles", "audits", "overhead"},
	}
	// Points 0-1 are EM3D Bulk with the audit off and on, 2-3 sample sort.
	type point struct{ cycles, audits int64 }
	pts := sim.Points(4, func(i int) point {
		audit := i%2 == 1
		if i < 2 {
			cfg := em
			cfg.Audit = audit
			res, _, _, _, err := em3dIntegrityRun(cfg, fault.Config{})
			if err != nil {
				panic(fmt.Sprintf("exp: em3d audit=%v run failed: %v", audit, err))
			}
			return point{int64(res.Cycles), res.Audits}
		}
		mcfg := machine.DefaultConfig(4)
		mcfg.MemBytes = 2 << 20
		m := machine.New(mcfg)
		defer m.Eng.Shutdown()
		scfg := splitc.ReliableConfig()
		scfg.Audit = audit
		rt := splitc.NewRuntime(m, scfg)
		rng := rand.New(rand.NewSource(3))
		res, _, err := apps.SampleSortRecoverable(rt, splitc.RecoveryConfig{}, nil, randFaultKeys(rng, 4, keysPer))
		if err != nil {
			panic(fmt.Sprintf("exp: samplesort audit=%v run failed: %v", audit, err))
		}
		return point{res.Cycles, rt.Audits}
	})
	for i, p := range pts {
		workload, base := "EM3D Bulk", pts[0].cycles
		if i >= 2 {
			workload, base = "sample sort", pts[2].cycles
		}
		t.Rows = append(t.Rows, []string{
			workload,
			onOff(i%2 == 1),
			fmt.Sprintf("%d", p.cycles),
			fmt.Sprintf("%d", p.audits),
			fmt.Sprintf("%.2fx", float64(p.cycles)/float64(base)),
		})
	}
	t.Note = "the audit re-reads each bulk region word-by-word over the network (~91 cycles/word uncached), so its price scales with bytes moved, not with cycles computed"
	return t
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
