package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/em3d"
	"repro/internal/machine"
)

const em3dPEs = 8

// em3dGraphs is how many recorded graphs --seed chooses among.
const em3dGraphs = 8

// em3dConfig is the em3d-large graph for a seed: Figure 9's per-PE
// size (500 nodes of degree 20) at 20% remote edges on 8 PEs.
func em3dConfig(seed int64) em3d.Config {
	g := (seed%em3dGraphs+em3dGraphs)%em3dGraphs + 1
	return em3d.Config{NodesPerPE: 500, Degree: 20, RemoteFrac: 0.2, Seed: g, Iters: 3}
}

// em3dCounts is one pass's exact work: events and hardware counters
// summed over the six machines.
type em3dCounts struct {
	events int64
	stats  machine.Stats
}

// runEM3D is the em3d-large workload: passes of the six EM3D versions
// over one graph, each version on a freshly built machine, until the
// budget is spent (at least two passes, so the exact counts can be
// compared).
func runEM3D(r *run) error {
	cfg := em3dConfig(r.seed)
	want, ok := em3dGolden[cfg.Seed]
	if !ok {
		return fmt.Errorf("no recorded results for graph seed %d", cfg.Seed)
	}
	// Set-up: building the six machines one pass runs on.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t := time.Now()
		ms := make([]*machine.T3D, len(em3d.Versions))
		for j := range ms {
			ms[j] = em3d.NewMachine(em3dPEs)
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

	var walls, allocs, nsPerEvent []float64
	var first em3dCounts
	start := time.Now()
	for len(walls) < 2 || time.Since(start).Seconds()+walls[len(walls)-1] <= r.budget.Seconds() {
		a0, t0 := allocated(), time.Now()
		root := r.tr.begin("bench.pass", -1, 0)
		var c em3dCounts
		var simSeconds float64
		for i, v := range em3d.Versions {
			id := r.tr.begin("machine.new", root, 0)
			m := em3d.NewMachine(em3dPEs)
			r.tr.end(id)
			id = r.tr.begin("em3d."+v.String(), root, 0)
			vt := time.Now()
			res, err := em3d.RunChecked(m, cfg, v, em3d.DefaultKnobs(), em3d.Hooks{})
			simSeconds += time.Since(vt).Seconds()
			r.tr.end(id)
			r.check(err == nil && res.Validated && res.Digest == want[i].digest && res.Cycles == want[i].cycles,
				"%v seed %d: err %v validated %v digest %016x cycles %d, recorded %016x/%d",
				v, cfg.Seed, err, res.Validated, res.Digest, res.Cycles, want[i].digest, want[i].cycles)
			c.events += m.Eng.Events()
			c.stats = addStats(c.stats, m.Stats())
			m.Eng.Shutdown()
		}
		r.tr.end(root)
		walls = append(walls, time.Since(t0).Seconds())
		allocs = append(allocs, float64(allocated()-a0)/mb)
		nsPerEvent = append(nsPerEvent, simSeconds*1e9/float64(c.events))
		if len(walls) == 1 {
			first = c
		}
		r.check(c == first, "pass %d: exact counts differ from pass 1", len(walls))
	}
	r.crossRunCheck(map[string]int64{"sim.events": first.events, "machine.stats": statsHash(first.stats)})

	r.setE2E("wall_s", median(walls), len(walls))
	r.setE2E("alloc_mb", median(allocs), len(allocs))
	r.note("events_per_s", "1/s", float64(first.events)/median(walls), len(walls))
	r.note("sim_events", "count", float64(first.events), len(walls))
	if r.trace {
		r.setLayer("trace.wall_s", median(walls))
		r.setLayer("sim.events", float64(first.events))
		r.setLayer("sim.ns_per_event", median(nsPerEvent))
		for _, v := range em3d.Versions {
			r.setLayer("em3d."+v.String()+"_s", median(r.tr.durations("em3d."+v.String())))
		}
		setStatsLayers(r, first.stats)
	}
	return nil
}

func addStats(a, b machine.Stats) machine.Stats {
	a.Loads += b.Loads
	a.Stores += b.Stores
	a.RemoteLoads += b.RemoteLoads
	a.L1Hits += b.L1Hits
	a.L1Misses += b.L1Misses
	a.TLBHits += b.TLBHits
	a.TLBMiss += b.TLBMiss
	a.WBPushes += b.WBPushes
	a.WBMerge += b.WBMerge
	a.WBFullStalls += b.WBFullStalls
	a.RemoteReads += b.RemoteReads
	a.RemoteWrites += b.RemoteWrites
	a.Prefetches += b.Prefetches
	a.AnnexUpdates += b.AnnexUpdates
	a.NetPackets += b.NetPackets
	a.NetPayload += b.NetPayload
	a.BarrierCrossings += b.BarrierCrossings
	return a
}

// statsHash folds every machine.Stats field into one number for the
// cross-run comparison.
func statsHash(s machine.Stats) int64 {
	h := uint64(14695981039346656037)
	for _, v := range []int64{s.Loads, s.Stores, s.RemoteLoads, s.L1Hits, s.L1Misses, s.TLBHits, s.TLBMiss,
		s.WBPushes, s.WBMerge, s.WBFullStalls, s.RemoteReads, s.RemoteWrites, s.Prefetches,
		s.AnnexUpdates, s.NetPackets, s.NetPayload, s.BarrierCrossings} {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return int64(h)
}

func setStatsLayers(r *run, s machine.Stats) {
	for name, v := range map[string]int64{
		"cpu.loads": s.Loads, "cpu.stores": s.Stores,
		"cache.l1_hits": s.L1Hits, "cache.l1_misses": s.L1Misses,
		"wbuf.pushes": s.WBPushes, "wbuf.full_stalls": s.WBFullStalls, "tlb.misses": s.TLBMiss,
		"shell.remote_reads": s.RemoteReads, "shell.remote_writes": s.RemoteWrites,
		"shell.prefetches": s.Prefetches, "shell.annex_updates": s.AnnexUpdates,
		"shell.barrier_crossings": s.BarrierCrossings,
		"net.packets":             s.NetPackets, "net.payload_bytes": s.NetPayload,
	} {
		r.setLayer(name, float64(v))
	}
}

// em3dResult is one version's recorded outcome on one graph.
type em3dResult struct {
	digest uint64
	cycles int64
}

// recordEM3D prints the results of every recorded graph as Go source
// for em3dGolden.
func recordEM3D() {
	fmt.Println("var em3dGolden = map[int64][6]em3dResult{")
	for s := int64(0); s < em3dGraphs; s++ {
		cfg := em3dConfig(s)
		fmt.Printf("\t%d: {", cfg.Seed)
		for _, v := range em3d.Versions {
			m := em3d.NewMachine(em3dPEs)
			res := em3d.Run(m, cfg, v, em3d.DefaultKnobs())
			m.Eng.Shutdown()
			fmt.Printf("{0x%016x, %d}, ", res.Digest, res.Cycles)
		}
		fmt.Println("},")
	}
	fmt.Println("}")
}
