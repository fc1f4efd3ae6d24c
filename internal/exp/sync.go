package exp

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/am"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/shell"
	"repro/internal/sim"
	"repro/internal/splitc"
)

func init() {
	register(Experiment{
		ID:    "tab7",
		Title: "Synchronization and messaging costs (§7)",
		Paper: "message send 122 cy (813 ns); receive interrupt 25 µs; handler switch +33 µs; fetch&increment ≈1 µs; AM deposit 2.9 µs; AM dispatch 1.5 µs.",
		Run:   runTab7,
	})

	register(Experiment{
		ID:    "hop",
		Title: "Network latency per hop (§4.2)",
		Paper: "13–20 ns (2–3 cycles) per hop.",
		Run:   runHop,
	})
}

func runTab7(o Options) []report.Table {
	t := report.Table{
		Title:   "Table: §7 primitive costs",
		Headers: []string{"primitive", "measured", "paper"},
	}
	us := func(cy float64) string { return fmt.Sprintf("%.2f µs", cy*cpu.NSPerCycle/1e3) }

	// Message send.
	m := newT3D()
	var sendCy float64
	m.RunOn(0, func(p *sim.Proc, n *machine.Node) {
		start := p.Now()
		for i := 0; i < 32; i++ {
			n.Shell.SendMessage(p, 1, [4]uint64{})
		}
		sendCy = float64(p.Now()-start) / 32
	})
	m.Eng.Shutdown()
	t.AddRow("message send", fmt.Sprintf("%.0f cy", sendCy), "122 cy (813 ns)")

	// Receive interrupt (queue mode).
	m = newT3D()
	var sentAt, queuedAt sim.Time
	m.Nodes[1].Shell.SetHandler(nil)
	m.Spawn(1, func(p *sim.Proc, n *machine.Node) {
		n.Shell.WaitMessage(p)
		queuedAt = p.Now()
	})
	m.Spawn(0, func(p *sim.Proc, n *machine.Node) {
		n.Shell.SendMessage(p, 1, [4]uint64{})
		sentAt = p.Now()
	})
	m.Eng.Run()
	m.Eng.Shutdown()
	t.AddRow("receive interrupt", us(float64(queuedAt-sentAt)), "25 µs")

	m2 := newT3D()
	var hAt, sAt sim.Time
	m2.Nodes[1].Shell.SetHandler(func(p *sim.Proc, msg shell.Message) { hAt = p.Now() })
	m2.RunOn(0, func(p *sim.Proc, n *machine.Node) {
		n.Shell.SendMessage(p, 1, [4]uint64{})
		sAt = p.Now()
	})
	m2.Eng.Shutdown()
	t.AddRow("interrupt + handler switch", us(float64(hAt-sAt)), "25 + 33 µs")

	// Fetch&increment.
	m = newT3D()
	var fiCy float64
	m.RunOn(0, func(p *sim.Proc, n *machine.Node) {
		start := p.Now()
		for i := 0; i < 64; i++ {
			n.Shell.FetchInc(p, 1, 0)
		}
		fiCy = float64(p.Now()-start) / 64
	})
	m.Eng.Shutdown()
	t.AddRow("fetch&increment", us(fiCy), "≈1 µs")

	// AM deposit and dispatch over the shared-memory queue.
	rt := splitc.NewRuntime(machine.New(machine.DefaultConfig(2)), splitc.DefaultConfig())
	//lint:allow sharedstate each MyPE switch arm writes its own metric exactly once; the host reads both after Run returns
	var depositCy, dispatchCy float64
	rt.Run(func(c *splitc.Ctx) {
		ep := am.New(c, am.DefaultConfig())
		const n = 32
		switch c.MyPE() {
		case 1:
			start := c.P.Now()
			for i := 0; i < n; i++ {
				ep.Send(0, am.HStore, [4]uint64{uint64(rt.Cfg.HeapBase), 1, 8, 0})
			}
			depositCy = float64(c.P.Now()-start) / n
		case 0:
			c.Compute(60000) // let messages land; then measure pure dispatch
			start := c.P.Now()
			for ep.Received < n {
				ep.Poll()
			}
			dispatchCy = float64(c.P.Now()-start) / n
		}
	})
	rt.M.Eng.Shutdown()
	t.AddRow("AM deposit (4 words + control)", us(depositCy), "2.9 µs")
	t.AddRow("AM dispatch + access", us(dispatchCy), "1.5 µs")

	// Hardware barrier crossing.
	mb := machine.New(machine.DefaultConfig(8))
	//lint:allow sharedstate PE 0 alone writes the barrier cost behind its PE guard; the host reads it after Run returns
	var barCy float64
	mb.Run(func(p *sim.Proc, n *machine.Node) {
		start := p.Now()
		for i := 0; i < 16; i++ {
			tk := n.Shell.BarrierStart(p)
			n.Shell.BarrierEnd(p, tk)
		}
		if n.PE == 0 {
			barCy = float64(p.Now()-start) / 16
		}
	})
	mb.Eng.Shutdown()
	t.AddRow("hardware barrier (8 PEs)", fmt.Sprintf("%.0f cy", barCy), "fast (dedicated wire)")

	return []report.Table{t}
}

func runHop(o Options) []report.Table {
	cfg := machine.DefaultConfig(8)
	cfg.Net.Shape = [3]int{8, 1, 1}
	readAvg := func(target int) float64 {
		m := machine.New(cfg)
		defer m.Eng.Shutdown()
		var total sim.Time
		m.RunOn(0, func(p *sim.Proc, n *machine.Node) {
			n.Shell.SetAnnex(p, 1, target, false)
			start := p.Now()
			for i := int64(0); i < 128; i++ {
				n.CPU.Load64(p, addr.Make(1, i*8))
			}
			total = p.Now() - start
		})
		return float64(total) / 128
	}
	t := report.Table{
		Title:   "Uncached read latency vs distance (8x1x1 ring)",
		Headers: []string{"hops", "read (cy)", "Δ per hop (cy, round trip)"},
	}
	hops := []int{1, 2, 3, 4}
	cys := sim.Points(len(hops), func(i int) float64 { return readAvg(hops[i]) })
	prev := 0.0
	for i, h := range hops {
		cy := cys[i]
		delta := ""
		if prev != 0 {
			delta = fmt.Sprintf("%.1f", (cy-prev)/2)
		}
		t.AddRow(h, fmt.Sprintf("%.1f", cy), delta)
		prev = cy
	}
	t.Note = "paper: 13–20 ns (2–3 cycles) additional latency per hop"
	return []report.Table{t}
}
