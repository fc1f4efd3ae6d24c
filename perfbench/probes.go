package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/addr"
	"repro/internal/am"
	"repro/internal/ckpt"
	"repro/internal/machine"
	"repro/internal/net"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/splitc"
)

// probeReps is how many times each probe loop runs; ns/op is the median.
const probeReps = 5

// cost is what one probe loop measured.
type cost struct {
	dur    time.Duration
	allocs uint64
	events int64
	err    error
}

// stopwatch measures host time and heap allocations from its start.
type stopwatch struct {
	t0 time.Time
	m0 uint64
}

func startWatch() stopwatch { return stopwatch{m0: mallocs(), t0: time.Now()} }

func (s stopwatch) stop() cost { return cost{dur: time.Since(s.t0), allocs: mallocs() - s.m0} }

// probe runs loop probeReps times and records per-operation figures
// under name: the time in unit (ns, us or ms), and, when withCounts,
// name_allocs and name_events. loop performs ops operations and
// returns what it measured.
func probe(r *run, name, unit string, ops int, withCounts bool, loop func() cost) error {
	id := r.tr.begin("probe."+name, -1, 0)
	defer r.tr.end(id)
	scale := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[unit]
	var per []float64
	var allocs uint64
	var events int64
	for i := 0; i < probeReps; i++ {
		c := loop()
		if c.err != nil {
			return fmt.Errorf("%s: %w", name, c.err)
		}
		per = append(per, float64(c.dur.Nanoseconds())/float64(ops)/scale)
		allocs += c.allocs
		events += c.events
	}
	r.setLayer(name+"_"+unit, median(per))
	if withCounts {
		total := float64(ops * probeReps)
		r.setLayer(name+"_allocs", float64(allocs)/total)
		r.setLayer(name+"_events", float64(events)/total)
	}
	return nil
}

// onPE0 runs body as the only active thread of a fresh 2-PE machine and
// adds the events the run processed to the cost body returns.
func onPE0(body func(p *sim.Proc, n *machine.Node) cost) cost {
	m := machine.New(machine.DefaultConfig(2))
	defer m.Eng.Shutdown()
	var c cost
	m.RunOn(0, func(p *sim.Proc, n *machine.Node) { c = body(p, n) })
	c.events = m.Eng.Events()
	return c
}

// splitcOnPE0 is onPE0 for a Split-C thread.
func splitcOnPE0(body func(c *splitc.Ctx) cost) cost {
	rt := splitc.NewRuntime(machine.New(machine.DefaultConfig(2)), splitc.DefaultConfig())
	defer rt.M.Eng.Shutdown()
	var out cost
	rt.RunOn(0, func(c *splitc.Ctx) { out = body(c) })
	out.events = rt.M.Eng.Events()
	return out
}

// runProbes times loops of public calls into each layer.
func runProbes(r *run) error {
	const waits = 20000
	const rounds = 5000
	const loads = 8192
	const remote = 2048
	const nodes = 64
	const msgs = 512
	probes := []struct {
		name, unit string
		ops        int
		withCounts bool
		loop       func() cost
	}{
		{"sim.wait", "ns", waits, true, func() cost {
			eng := sim.NewEngine()
			var c cost
			eng.Spawn("wait", func(p *sim.Proc) {
				sw := startWatch()
				for i := 0; i < waits; i++ {
					p.Wait(1)
				}
				c = sw.stop()
			})
			eng.Run()
			c.events = eng.Events()
			return c
		}},
		{"sim.pingpong", "ns", rounds, true, func() cost {
			eng := sim.NewEngine()
			ping, pong := sim.NewSignal("ping"), sim.NewSignal("pong")
			var pings, pongs int
			eng.Spawn("ping", func(p *sim.Proc) {
				for pings < rounds {
					sim.Await(p, pong, func() bool { return pongs == pings })
					pings++
					ping.Fire(eng)
				}
			})
			eng.Spawn("pong", func(p *sim.Proc) {
				for pongs < rounds {
					sim.Await(p, ping, func() bool { return pings > pongs })
					pongs++
					pong.Fire(eng)
				}
			})
			sw := startWatch()
			eng.Run()
			c := sw.stop()
			c.events = eng.Events()
			return c
		}},
		{"cpu.load_hit", "ns", loads, true, func() cost {
			return onPE0(func(p *sim.Proc, n *machine.Node) cost {
				n.CPU.Load64(p, 0)
				sw := startWatch()
				for i := 0; i < loads; i++ {
					n.CPU.Load64(p, 0)
				}
				return sw.stop()
			})
		}},
		// Consecutive lines of a 256 KB region: every load misses the
		// 8 KB L1.
		{"cpu.load_miss", "ns", loads, true, func() cost {
			return onPE0(func(p *sim.Proc, n *machine.Node) cost {
				sw := startWatch()
				for i := int64(0); i < loads; i++ {
					n.CPU.Load64(p, i*32)
				}
				return sw.stop()
			})
		}},
		{"cpu.store", "ns", loads, true, func() cost {
			return onPE0(func(p *sim.Proc, n *machine.Node) cost {
				sw := startWatch()
				for i := int64(0); i < loads; i++ {
					n.CPU.Store64(p, (i*8)%(8<<10), uint64(i))
				}
				return sw.stop()
			})
		}},
		{"shell.remote_read", "ns", remote, true, func() cost {
			return onPE0(func(p *sim.Proc, n *machine.Node) cost {
				n.Shell.SetAnnex(p, 1, 1, false)
				sw := startWatch()
				for i := int64(0); i < remote; i++ {
					n.CPU.Load64(p, addr.Make(1, (i*32)%(8<<10)))
				}
				return sw.stop()
			})
		}},
		{"net.route_cold", "ns", nodes * (nodes - 1), false, func() cost {
			nw := net.New(sim.NewEngine(), net.DefaultConfig(nodes))
			sw := startWatch()
			for s := 0; s < nodes; s++ {
				for d := 0; d < nodes; d++ {
					if s != d {
						nw.Route(s, d)
					}
				}
			}
			return sw.stop()
		}},
		{"am.send", "ns", msgs, true, func() cost {
			rt := splitc.NewRuntime(machine.New(machine.DefaultConfig(2)), splitc.DefaultConfig())
			defer rt.M.Eng.Shutdown()
			store := [4]uint64{uint64(rt.Cfg.HeapBase), 1, 8, 0}
			sw := startWatch()
			rt.Run(func(c *splitc.Ctx) {
				ep := am.New(c, am.DefaultConfig())
				if c.MyPE() == 1 {
					for i := 0; i < msgs; i++ {
						ep.Send(0, am.HStore, store)
					}
					return
				}
				ep.PollUntil(func() bool { return ep.Received == msgs })
			})
			c := sw.stop()
			c.events = rt.M.Eng.Events()
			return c
		}},
	}
	for _, p := range probes {
		if err := probe(r, p.name, p.unit, p.ops, p.withCounts, p.loop); err != nil {
			return err
		}
	}
	if err := splitcProbes(r); err != nil {
		return err
	}
	return hostProbes(r)
}

// splitcProbes times Get, Put, their Sync, and BulkGet on a 2-PE
// Split-C runtime, with PE 0 reaching into PE 1.
func splitcProbes(r *run) error {
	const batch, batches = 16, 128
	var syncs []float64
	for _, put := range []bool{false, true} {
		name := "splitc.get"
		if put {
			name = "splitc.put"
		}
		err := probe(r, name, "ns", batch*batches, true, func() cost {
			return splitcOnPE0(func(c *splitc.Ctx) cost {
				dst := c.Alloc(batch * 8)
				base := splitc.Global(1, c.Alloc(batch*8))
				var sent cost
				var sync time.Duration
				for b := 0; b < batches; b++ {
					sw := startWatch()
					for i := int64(0); i < batch; i++ {
						if put {
							c.Put(base.AddLocal(i*8), uint64(i))
						} else {
							c.Get(dst+i*8, base.AddLocal(i*8))
						}
					}
					ic := sw.stop()
					sent.dur += ic.dur
					sent.allocs += ic.allocs
					t := time.Now()
					c.Sync()
					sync += time.Since(t)
				}
				syncs = append(syncs, float64(sync.Nanoseconds())/batches)
				return sent
			})
		})
		if err != nil {
			return err
		}
	}
	r.setLayer("splitc.sync_ns", median(syncs))

	const kb, copies = 8, 64
	var perKB []float64
	for i := 0; i < probeReps; i++ {
		c := splitcOnPE0(func(c *splitc.Ctx) cost {
			dst := c.Alloc(kb << 10)
			src := splitc.Global(1, c.Alloc(kb<<10))
			sw := startWatch()
			for j := 0; j < copies; j++ {
				c.BulkGet(dst, src, kb<<10)
				c.Sync()
			}
			return sw.stop()
		})
		perKB = append(perKB, float64(c.dur.Nanoseconds())/(kb*copies))
	}
	r.setLayer("splitc.bulk_get_ns_per_kb", median(perKB))
	return nil
}

// hostProbes times the host-side layers: a journal append with its
// fsync, a job-sized checkpoint write, and machine construction.
func hostProbes(r *run) error {
	parent := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return fmt.Errorf("probe dir: %w", err)
	}
	dir, err := os.MkdirTemp(parent, "probe-")
	if err != nil {
		return fmt.Errorf("probe dir: %w", err)
	}
	defer os.RemoveAll(dir)

	const appends = 20
	err = probe(r, "serve.journal_append", "us", appends, false, func() cost {
		j, _, err := serve.OpenJournal(filepath.Join(dir, "side"))
		if err != nil {
			return cost{err: err}
		}
		sw := startWatch()
		for i := 0; i < appends && err == nil; i++ {
			err = j.Append(serve.Record{Type: "probe"})
		}
		c := sw.stop()
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		c.err = err
		return c
	})
	if err != nil {
		return err
	}

	const writes = 2
	snap := jobSizedSnapshot()
	err = probe(r, "ckpt.write", "ms", writes, false, func() cost {
		st := ckpt.NewStore(nil, dir, writes, nil)
		sw := startWatch()
		var err error
		for i := 0; i < writes && err == nil; i++ {
			snap.Epoch = i
			_, _, err = st.Write(snap)
		}
		c := sw.stop()
		c.err = err
		return c
	})
	if err != nil {
		return err
	}

	const builds = 4
	a0 := allocated()
	err = probe(r, "machine.new", "ms", builds, false, func() cost {
		var ms []*machine.T3D
		sw := startWatch()
		for i := 0; i < builds; i++ {
			ms = append(ms, machine.New(machine.DefaultConfig(2)))
		}
		c := sw.stop()
		for _, m := range ms {
			m.Eng.Shutdown()
		}
		return c
	})
	r.setLayer("machine.new_alloc_mb", float64(allocated()-a0)/mb/(builds*probeReps))
	return err
}

// jobSizedSnapshot is a checkpoint the size a default em3d job
// publishes: 8 PEs of 2 MB dense DRAM.
func jobSizedSnapshot() *ckpt.Snapshot {
	const pes, memLen = 8, 2 << 20
	s := &ckpt.Snapshot{Meta: ckpt.Meta{JobID: "probe", PEs: pes, MemLen: memLen,
		Heap: make([]int64, pes), Regs: make([][3]uint64, pes)}}
	for i := 0; i < pes; i++ {
		s.Mem = append(s.Mem, make([]byte, memLen))
	}
	return s
}
