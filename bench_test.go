// Package repro's benchmark harness: one testing.B benchmark per figure
// and table of "Empirical Evaluation of the CRAY-T3D: A Compiler
// Perspective" (ISCA 1995), plus ablation benchmarks for the design
// choices DESIGN.md calls out. Reported custom metrics carry the paper's
// units (ns/op of simulated time, MB/s, µs/edge), so
//
//	go test -bench=. -benchmem
//
// regenerates the headline numbers. The full tabular artifacts come from
// cmd/t3dbench.
package repro

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/am"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/em3d"
	"repro/internal/exp"
	"repro/internal/machine"
	"repro/internal/net"
	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/splitc"
)

func newM() *machine.T3D { return machine.New(machine.DefaultConfig(2)) }

// simNS converts simulated cycles to nanoseconds for custom metrics.
func simNS(cycles sim.Time) float64 { return float64(cycles) * cpu.NSPerCycle }

// --- Figure 1: local read latency, T3D vs workstation ---

func BenchmarkFig1LocalReadT3D(b *testing.B) {
	cfg := core.SawtoothConfig{Sizes: []int64{64 << 10}, MinAccesses: 256, WarmPasses: 1}
	var ns float64
	for i := 0; i < b.N; i++ {
		prof := core.Sawtooth(newM, core.LocalRead(), cfg)
		ns, _ = prof.At(64<<10, 32)
	}
	b.ReportMetric(ns, "simns/read")
}

func BenchmarkFig1LocalReadWorkstation(b *testing.B) {
	cfg := core.SawtoothConfig{Sizes: []int64{1 << 20}, MinAccesses: 128, WarmPasses: 1}
	var ns float64
	for i := 0; i < b.N; i++ {
		prof := core.SawtoothWorkstation(core.WSRead(), cfg)
		ns, _ = prof.At(1<<20, 32)
	}
	b.ReportMetric(ns, "simns/read")
}

// --- Figure 2: local write cost ---

func BenchmarkFig2LocalWrite(b *testing.B) {
	cfg := core.SawtoothConfig{Sizes: []int64{64 << 10}, MinAccesses: 256, WarmPasses: 1}
	var ns float64
	for i := 0; i < b.N; i++ {
		prof := core.Sawtooth(newM, core.LocalWrite(), cfg)
		ns, _ = prof.At(64<<10, 32)
	}
	b.ReportMetric(ns, "simns/write")
}

// --- Table §2: gray-box inference ---

func BenchmarkTab2Inference(b *testing.B) {
	cfg := core.SawtoothConfig{
		Sizes:       []int64{4 << 10, 8 << 10, 16 << 10, 64 << 10, 256 << 10},
		MinAccesses: 192, WarmPasses: 1,
	}
	var inferred int64
	for i := 0; i < b.N; i++ {
		prof := core.Sawtooth(newM, core.LocalRead(), cfg)
		inf := core.InferMemory(&prof)
		inferred = inf.CacheSize
	}
	b.ReportMetric(float64(inferred), "inferred-L1-bytes")
}

// --- Table §3: annex update ---

func BenchmarkTab3AnnexUpdate(b *testing.B) {
	m := newM()
	var cy float64
	b.ResetTimer()
	m.RunOn(0, func(p *sim.Proc, n *machine.Node) {
		for i := 0; i < b.N; i++ {
			start := p.Now()
			for j := 0; j < 256; j++ {
				n.Shell.SetAnnex(p, 1, 1, false)
			}
			cy = float64(p.Now()-start) / 256
		}
	})
	b.ReportMetric(cy, "simcy/update")
}

// --- Figure 4: remote reads ---

func BenchmarkFig4RemoteReadUncached(b *testing.B) {
	benchRemoteRead(b, false)
}

func BenchmarkFig4RemoteReadCached(b *testing.B) {
	benchRemoteRead(b, true)
}

func benchRemoteRead(b *testing.B, cached bool) {
	var cy float64
	for i := 0; i < b.N; i++ {
		m := newM()
		m.RunOn(0, func(p *sim.Proc, n *machine.Node) {
			n.Shell.SetAnnex(p, 1, 1, cached)
			start := p.Now()
			const reps = 256
			for r := int64(0); r < reps; r++ {
				n.CPU.Load64(p, addr.Make(1, (r*32)%(8<<10)))
			}
			cy = float64(p.Now()-start) / reps
		})
	}
	b.ReportMetric(cy*cpu.NSPerCycle, "simns/read")
}

func BenchmarkFig4SplitCRead(b *testing.B) {
	var cy float64
	for i := 0; i < b.N; i++ {
		rt := splitc.NewRuntime(machine.New(machine.DefaultConfig(3)), splitc.DefaultConfig())
		rt.RunOn(0, func(c *splitc.Ctx) {
			start := c.P.Now()
			const reps = 256
			for r := 0; r < reps; r++ {
				c.Read(splitc.Global(1+r%2, rt.Cfg.HeapBase+int64(r%64)*8))
			}
			cy = float64(c.P.Now()-start) / reps
		})
	}
	b.ReportMetric(cy, "simcy/read")
}

// --- Figure 5: remote writes ---

func BenchmarkFig5RemoteWriteBlocking(b *testing.B) {
	var cy float64
	for i := 0; i < b.N; i++ {
		m := newM()
		m.RunOn(0, func(p *sim.Proc, n *machine.Node) {
			n.Shell.SetAnnex(p, 1, 1, false)
			start := p.Now()
			const reps = 256
			for r := int64(0); r < reps; r++ {
				n.CPU.Store64(p, addr.Make(1, (r*8)%(8<<10)), 1)
				n.CPU.MB(p)
				n.Shell.WaitWritesComplete(p)
			}
			cy = float64(p.Now()-start) / reps
		})
	}
	b.ReportMetric(cy, "simcy/write")
}

func BenchmarkFig5SplitCWrite(b *testing.B) {
	var cy float64
	for i := 0; i < b.N; i++ {
		rt := splitc.NewRuntime(machine.New(machine.DefaultConfig(3)), splitc.DefaultConfig())
		rt.RunOn(0, func(c *splitc.Ctx) {
			start := c.P.Now()
			const reps = 256
			for r := 0; r < reps; r++ {
				c.Write(splitc.Global(1+r%2, rt.Cfg.HeapBase+int64(r%64)*8), 1)
			}
			cy = float64(c.P.Now()-start) / reps
		})
	}
	b.ReportMetric(cy, "simcy/write")
}

// --- Figure 6: prefetch pipeline ---

func BenchmarkFig6PrefetchGroup1(b *testing.B)  { benchPrefetch(b, 1) }
func BenchmarkFig6PrefetchGroup16(b *testing.B) { benchPrefetch(b, 16) }

func benchPrefetch(b *testing.B, group int) {
	var ns float64
	for i := 0; i < b.N; i++ {
		pts := core.PrefetchProbe(newM, []int{group}, 32)
		ns = pts[0].AvgNSPerOp
	}
	b.ReportMetric(ns, "simns/word")
}

// --- Figure 7: non-blocking writes / put ---

func BenchmarkFig7NonblockingWrite(b *testing.B) {
	var cy float64
	for i := 0; i < b.N; i++ {
		m := newM()
		m.RunOn(0, func(p *sim.Proc, n *machine.Node) {
			n.Shell.SetAnnex(p, 1, 1, false)
			start := p.Now()
			const reps = 512
			for r := int64(0); r < reps; r++ {
				n.CPU.Store64(p, addr.Make(1, (r*32)%(8<<10)), 1)
			}
			cy = float64(p.Now()-start) / reps
		})
	}
	b.ReportMetric(cy, "simcy/write")
}

func BenchmarkFig7SplitCPut(b *testing.B) {
	var cy float64
	for i := 0; i < b.N; i++ {
		rt := splitc.NewRuntime(machine.New(machine.DefaultConfig(3)), splitc.DefaultConfig())
		rt.RunOn(0, func(c *splitc.Ctx) {
			start := c.P.Now()
			const reps = 512
			for r := 0; r < reps; r++ {
				c.Put(splitc.Global(1+r%2, rt.Cfg.HeapBase+int64(r)*8%4096), 1)
			}
			c.Sync()
			cy = float64(c.P.Now()-start) / reps
		})
	}
	b.ReportMetric(cy, "simcy/put")
}

// --- Figure 8: bulk transfer bandwidth ---

func BenchmarkFig8BulkReadPrefetch8K(b *testing.B) { benchBulkRead(b, splitc.MechPrefetch, 8<<10) }
func BenchmarkFig8BulkReadBLT256K(b *testing.B)    { benchBulkRead(b, splitc.MechBLT, 256<<10) }
func BenchmarkFig8BulkReadUncached8K(b *testing.B) { benchBulkRead(b, splitc.MechUncached, 8<<10) }
func BenchmarkFig8BulkReadCached8K(b *testing.B)   { benchBulkRead(b, splitc.MechCached, 8<<10) }

func benchBulkRead(b *testing.B, mech splitc.Mechanism, size int64) {
	var mbs float64
	for i := 0; i < b.N; i++ {
		rt := splitc.NewRuntime(newM(), splitc.DefaultConfig())
		var cycles sim.Time
		rt.RunOn(0, func(c *splitc.Ctx) {
			c.Alloc(size)
			dst := c.Alloc(size)
			g := splitc.Global(1, rt.Cfg.HeapBase)
			c.BulkReadVia(mech, dst, g, size) // warm
			start := c.P.Now()
			c.BulkReadVia(mech, dst, g, size)
			cycles = c.P.Now() - start
		})
		mbs = core.Bandwidth(size, cycles)
	}
	b.ReportMetric(mbs, "simMB/s")
}

func BenchmarkFig8BulkWriteStores64K(b *testing.B) {
	var mbs float64
	for i := 0; i < b.N; i++ {
		rt := splitc.NewRuntime(newM(), splitc.DefaultConfig())
		var cycles sim.Time
		rt.RunOn(0, func(c *splitc.Ctx) {
			src := c.Alloc(64 << 10)
			dst := c.Alloc(64 << 10)
			start := c.P.Now()
			c.BulkWrite(splitc.Global(1, dst), src, 64<<10)
			cycles = c.P.Now() - start
		})
		mbs = core.Bandwidth(64<<10, cycles)
	}
	b.ReportMetric(mbs, "simMB/s")
}

// --- Table §7: synchronization and messaging ---

func BenchmarkTab7MessageSend(b *testing.B) {
	var cy float64
	for i := 0; i < b.N; i++ {
		m := newM()
		m.RunOn(0, func(p *sim.Proc, n *machine.Node) {
			start := p.Now()
			for r := 0; r < 64; r++ {
				n.Shell.SendMessage(p, 1, [4]uint64{})
			}
			cy = float64(p.Now()-start) / 64
		})
	}
	b.ReportMetric(cy, "simcy/send")
}

func BenchmarkTab7FetchIncrement(b *testing.B) {
	var cy float64
	for i := 0; i < b.N; i++ {
		m := newM()
		m.RunOn(0, func(p *sim.Proc, n *machine.Node) {
			start := p.Now()
			for r := 0; r < 64; r++ {
				n.Shell.FetchInc(p, 1, 0)
			}
			cy = float64(p.Now()-start) / 64
		})
	}
	b.ReportMetric(cy, "simcy/op")
}

func BenchmarkTab7AMDeposit(b *testing.B) {
	var cy float64
	for i := 0; i < b.N; i++ {
		rt := splitc.NewRuntime(newM(), splitc.DefaultConfig())
		rt.Run(func(c *splitc.Ctx) {
			ep := am.New(c, am.DefaultConfig())
			const msgs = 32
			if c.MyPE() == 1 {
				start := c.P.Now()
				for r := 0; r < msgs; r++ {
					ep.Send(0, am.HStore, [4]uint64{uint64(rt.Cfg.HeapBase), 1, 8, 0})
				}
				cy = float64(c.P.Now()-start) / msgs
			} else {
				ep.PollUntil(func() bool { return ep.Received == msgs })
			}
		})
	}
	b.ReportMetric(cy, "simcy/deposit")
}

func BenchmarkTab7Barrier(b *testing.B) {
	var cy float64
	for i := 0; i < b.N; i++ {
		m := machine.New(machine.DefaultConfig(8))
		m.Run(func(p *sim.Proc, n *machine.Node) {
			start := p.Now()
			for r := 0; r < 32; r++ {
				tk := n.Shell.BarrierStart(p)
				n.Shell.BarrierEnd(p, tk)
			}
			if n.PE == 0 {
				cy = float64(p.Now()-start) / 32
			}
		})
	}
	b.ReportMetric(cy, "simcy/barrier")
}

// --- Figure 9: EM3D ---

func BenchmarkFig9EM3D(b *testing.B) {
	for _, v := range em3d.Versions {
		b.Run(v.String(), func(b *testing.B) {
			var us float64
			for i := 0; i < b.N; i++ {
				m := em3d.NewMachine(4)
				cfg := em3d.Config{NodesPerPE: 60, Degree: 6, RemoteFrac: 0.2, Seed: 42, Iters: 2}
				res := em3d.Run(m, cfg, v, em3d.DefaultKnobs())
				if !res.Validated {
					b.Fatalf("%v failed validation", v)
				}
				us = res.USPerEdge
			}
			b.ReportMetric(us, "simus/edge")
		})
	}
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationAnnexStrategy compares single-register reloading with
// the multi-register runtime table (§3.4).
func BenchmarkAblationAnnexStrategy(b *testing.B) {
	for _, s := range []struct {
		name string
		st   splitc.AnnexStrategy
	}{{"Single", splitc.SingleAnnex}, {"Multi", splitc.MultiAnnex}} {
		b.Run(s.name, func(b *testing.B) {
			var cy float64
			for i := 0; i < b.N; i++ {
				cfg := splitc.DefaultConfig()
				cfg.Annex = s.st
				rt := splitc.NewRuntime(machine.New(machine.DefaultConfig(4)), cfg)
				rt.RunOn(0, func(c *splitc.Ctx) {
					start := c.P.Now()
					const reps = 192
					for r := 0; r < reps; r++ {
						c.Read(splitc.Global(1+r%3, rt.Cfg.HeapBase))
					}
					cy = float64(c.P.Now()-start) / reps
				})
			}
			b.ReportMetric(cy, "simcy/read")
		})
	}
}

// BenchmarkAblationReadMechanism compares the uncached read the runtime
// ships with against the cached+flush alternative it rejects (§4.4).
func BenchmarkAblationReadMechanism(b *testing.B) {
	run := func(b *testing.B, rd func(c *splitc.Ctx, g splitc.GlobalPtr) uint64) {
		var cy float64
		for i := 0; i < b.N; i++ {
			rt := splitc.NewRuntime(newM(), splitc.DefaultConfig())
			rt.RunOn(0, func(c *splitc.Ctx) {
				start := c.P.Now()
				const reps = 192
				for r := 0; r < reps; r++ {
					rd(c, splitc.Global(1, rt.Cfg.HeapBase+int64(r%512)*8))
				}
				cy = float64(c.P.Now()-start) / reps
			})
		}
		b.ReportMetric(cy, "simcy/read")
	}
	b.Run("Uncached", func(b *testing.B) {
		run(b, func(c *splitc.Ctx, g splitc.GlobalPtr) uint64 { return c.Read(g) })
	})
	b.Run("CachedPlusFlush", func(b *testing.B) {
		run(b, func(c *splitc.Ctx, g splitc.GlobalPtr) uint64 { return c.ReadCached(g) })
	})
}

// BenchmarkAblationBulkCrossover sweeps the prefetch/BLT switch point to
// confirm ≈16 KB is where the BLT starts winning (§6.3).
func BenchmarkAblationBulkCrossover(b *testing.B) {
	for _, size := range []int64{4 << 10, 16 << 10, 64 << 10} {
		for _, mech := range []splitc.Mechanism{splitc.MechPrefetch, splitc.MechBLT} {
			b.Run(mech.String()+"-"+bytesLabel(size), func(b *testing.B) {
				benchBulkRead(b, mech, size)
			})
		}
	}
}

func bytesLabel(n int64) string {
	if n >= 1<<10 {
		return string(rune('0'+n>>10/10%10)) + string(rune('0'+n>>10%10)) + "K"
	}
	return "small"
}

// BenchmarkAblationStoreVsWrite shows the pipelining gain of deferred
// completion (§7.2): stores + one AllStoreSync vs blocking writes.
func BenchmarkAblationStoreVsWrite(b *testing.B) {
	b.Run("BlockingWrites", func(b *testing.B) {
		var cy float64
		for i := 0; i < b.N; i++ {
			rt := splitc.NewRuntime(newM(), splitc.DefaultConfig())
			rt.Run(func(c *splitc.Ctx) {
				if c.MyPE() != 0 {
					c.Barrier()
					return
				}
				start := c.P.Now()
				for r := 0; r < 128; r++ {
					c.Write(splitc.Global(1, rt.Cfg.HeapBase+int64(r)*8), 1)
				}
				cy = float64(c.P.Now()-start) / 128
				c.Barrier()
			})
		}
		b.ReportMetric(cy, "simcy/store")
	})
	b.Run("SignalingStores", func(b *testing.B) {
		var cy float64
		for i := 0; i < b.N; i++ {
			rt := splitc.NewRuntime(newM(), splitc.DefaultConfig())
			rt.Run(func(c *splitc.Ctx) {
				start := c.P.Now()
				if c.MyPE() == 0 {
					for r := 0; r < 128; r++ {
						c.Store(splitc.Global(1, rt.Cfg.HeapBase+int64(r)*8), 1)
					}
				}
				c.AllStoreSync()
				if c.MyPE() == 0 {
					cy = float64(c.P.Now()-start) / 128
				}
			})
		}
		b.ReportMetric(cy, "simcy/store")
	})
}

// BenchmarkHostSimulatorThroughput measures the host-side cost of the
// simulator itself — events per wall second, the serving-capacity
// number t3dserve's admission control is ultimately bounded by. One of
// the few benchmarks here about real time rather than simulated time.
func BenchmarkHostSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		m := newM()
		m.RunOn(0, func(p *sim.Proc, n *machine.Node) {
			for r := int64(0); r < 1000; r++ {
				n.CPU.Load64(p, (r*32)%(64<<10))
			}
		})
		events += m.Eng.Events()
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
	}
}

// --- Host allocation profile (BENCH_*.json): allocs/op on the three
// paths every served job hammers — the event heap, the shell's remote
// access path, and torus route computation. A regression here is a
// service-throughput regression before it is anything else. ---

// BenchmarkAllocSimHeap churns the raw event heap: 1024 schedules and
// pops per op, no machine attached.
func BenchmarkAllocSimHeap(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		for r := 0; r < 1024; r++ {
			eng.At(sim.Time(r%64), func() {})
		}
		eng.Run()
	}
}

// BenchmarkAllocShellHotPath drives the remote-load fast path: annexed
// uncached loads, the inner loop of every Split-C read.
func BenchmarkAllocShellHotPath(b *testing.B) {
	m := newM() // built once: the metric is the access path, not setup
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunOn(0, func(p *sim.Proc, n *machine.Node) {
			n.Shell.SetAnnex(p, 1, 1, false)
			for r := int64(0); r < 256; r++ {
				n.CPU.Load64(p, addr.Make(1, (r*32)%(8<<10)))
			}
		})
	}
}

// BenchmarkAllocNetRouting computes all-pairs torus routes on a fresh
// network each op — the cold-cache cost paid after every topology
// change (fault, heal, reroute).
func BenchmarkAllocNetRouting(b *testing.B) {
	b.ReportAllocs()
	const nodes = 8
	for i := 0; i < b.N; i++ {
		nw := net.New(sim.NewEngine(), net.DefaultConfig(nodes))
		for s := 0; s < nodes; s++ {
			for d := 0; d < nodes; d++ {
				if s != d {
					nw.Route(s, d)
				}
			}
		}
	}
}

// BenchmarkExperimentRegistry smoke-runs the cheapest registered
// experiment end to end through the exp registry.
func BenchmarkExperimentRegistry(b *testing.B) {
	e, ok := exp.Find("hop")
	if !ok {
		b.Fatal("hop experiment missing")
	}
	for i := 0; i < b.N; i++ {
		_ = e.Run(exp.Options{Quick: true})
	}
}

// --- Application kernels (internal/apps): end-to-end echoes of the
// primitive costs, EM3D-style ---

func BenchmarkAppHistogram(b *testing.B) {
	for _, m := range []apps.HistogramMethod{apps.HistLocalReduce, apps.HistRemoteRMW, apps.HistAM} {
		b.Run(m.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			keys := make([][]uint64, 4)
			for pe := range keys {
				for i := 0; i < 24; i++ {
					keys[pe] = append(keys[pe], rng.Uint64())
				}
			}
			var cy int64
			for i := 0; i < b.N; i++ {
				cfg := machine.DefaultConfig(4)
				cfg.MemBytes = 2 << 20
				rt := splitc.NewRuntime(machine.New(cfg), splitc.DefaultConfig())
				res := apps.Histogram(rt, keys, 16, m)
				if !res.Validated {
					b.Fatal("validation failed")
				}
				cy = res.Cycles
			}
			b.ReportMetric(float64(cy), "simcy")
		})
	}
}

func BenchmarkAppSampleSort(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	keys := make([][]uint64, 4)
	for pe := range keys {
		for i := 0; i < 48; i++ {
			keys[pe] = append(keys[pe], rng.Uint64())
		}
	}
	var cy int64
	for i := 0; i < b.N; i++ {
		cfg := machine.DefaultConfig(4)
		cfg.MemBytes = 2 << 20
		rt := splitc.NewRuntime(machine.New(cfg), splitc.DefaultConfig())
		res := apps.SampleSort(rt, keys)
		if !res.Validated {
			b.Fatal("validation failed")
		}
		cy = res.Cycles
	}
	b.ReportMetric(float64(cy), "simcy")
}

func BenchmarkAppMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	const n = 16
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = rng.Float64()
		}
	}
	var cy int64
	for i := 0; i < b.N; i++ {
		cfg := machine.DefaultConfig(4)
		cfg.MemBytes = 2 << 20
		rt := splitc.NewRuntime(machine.New(cfg), splitc.DefaultConfig())
		res := apps.MatMul(rt, a)
		if !res.Validated {
			b.Fatal("validation failed")
		}
		cy = res.Cycles
	}
	b.ReportMetric(float64(cy), "simcy")
}

func BenchmarkAppRadixSort(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	keys := make([][]uint64, 4)
	for pe := range keys {
		for i := 0; i < 32; i++ {
			keys[pe] = append(keys[pe], rng.Uint64()%(1<<16))
		}
	}
	var cy int64
	for i := 0; i < b.N; i++ {
		cfg := machine.DefaultConfig(4)
		cfg.MemBytes = 2 << 20
		rt := splitc.NewRuntime(machine.New(cfg), splitc.DefaultConfig())
		res := apps.RadixSort(rt, keys, 4, 16)
		if !res.Validated {
			b.Fatal("validation failed")
		}
		cy = res.Cycles
	}
	b.ReportMetric(float64(cy), "simcy")
}

// BenchmarkCompilerSplitPhase measures the mini-compiler's split-phase
// pass end to end: the same gather program, naive vs optimized.
func BenchmarkCompilerSplitPhase(b *testing.B) {
	build := func() *scc.Program {
		bb := scc.NewBuilder()
		sum := bb.R()
		bb.I(scc.Instr{Op: scc.OpConst, Dst: sum, Imm: 0})
		base := splitc.DefaultConfig().HeapBase
		vals := make([]scc.Reg, 16)
		for i := 0; i < 16; i++ {
			gp := bb.R()
			bb.I(scc.Instr{Op: scc.OpConst, Dst: gp, Imm: uint64(splitc.Global(1, base+int64(i)*8))})
			vals[i] = bb.R()
			bb.I(scc.Instr{Op: scc.OpRead, Dst: vals[i], A: gp})
		}
		for i := 0; i < 16; i++ {
			bb.I(scc.Instr{Op: scc.OpAdd, Dst: sum, A: sum, B: vals[i]})
		}
		return bb.Build()
	}
	for _, variant := range []struct {
		name string
		opt  bool
	}{{"Naive", false}, {"SplitPhase", true}} {
		b.Run(variant.name, func(b *testing.B) {
			p := build()
			if variant.opt {
				p = scc.OptimizeSplitPhase(p)
			}
			var cy sim.Time
			for i := 0; i < b.N; i++ {
				rt := splitc.NewRuntime(newM(), splitc.DefaultConfig())
				rt.RunOn(0, func(c *splitc.Ctx) {
					start := c.P.Now()
					scc.Exec(c, p)
					cy = c.P.Now() - start
				})
			}
			b.ReportMetric(float64(cy), "simcy")
		})
	}
}
