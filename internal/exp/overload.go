// Overload robustness: the extH experiment drives an N-to-1 incast —
// the hotspot pattern the paper's flat shared-address-space programs
// produce at reduction roots and work-queue heads — across offered load
// and fan-in, with the static reliable window versus the adaptive
// (ECN-mark-driven AIMD) window. The paper's T3D never loses a packet,
// so its queues shed load only by backpressure; this experiment measures
// what happens when software must provide that backpressure itself.
package exp

import (
	"fmt"
	"sort"

	"repro/internal/am"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/splitc"
)

func init() {
	register(Experiment{
		ID:    "extH",
		Title: "Incast overload: goodput collapse vs adaptive backpressure",
		Paper: "Beyond the paper: §7.4 builds message queues from shared-memory primitives but measures them unloaded. Under N-to-1 incast an unprotected window overruns the receive queue and collapses into retransmission storms; ECN-style marks echoed through the ack word plus an AIMD window sustain goodput and bound latency.",
		Run:   runOverload,
	})
}

// FlowControl selects the incast run's backpressure arm.
type FlowControl int

const (
	// FlowStatic is the reliable layer's default: the per-sender
	// CreditWindow clamped so all senders together fit the receive queue.
	FlowStatic FlowControl = iota
	// FlowNone removes the clamp: senders keep full windows regardless
	// of queue capacity. Incast then overruns the receive queue and
	// recovery is retransmission alone — the no-backpressure baseline.
	FlowNone
	// FlowAdaptive is the AIMD window driven by ECN marks and timeouts.
	FlowAdaptive
)

func (f FlowControl) String() string {
	switch f {
	case FlowNone:
		return "none"
	case FlowAdaptive:
		return "adaptive"
	default:
		return "static"
	}
}

// IncastConfig shapes one incast run: FanIn senders (PEs 1..FanIn) each
// submit Msgs messages to PE 0, pausing Gap cycles between submissions
// (offered-load control; 0 is open throttle).
type IncastConfig struct {
	PEs, FanIn, Msgs int
	Gap              sim.Time
	Mode             FlowControl
	TTL              sim.Time // per-message delivery budget (0 = none)
	QueueSlots       int      // receive-queue override (0 = default)
	RetryTimeout     sim.Time // retransmission timeout override (0 = default)
	// FlitOcc narrows the links (cycles of link occupancy per 8 bytes,
	// 0 = default fabric). The default T3D fabric is so much faster than
	// the AM dispatch loop that an 8-node incast congests the receiver's
	// poll loop, not the torus; narrowed links move the bottleneck to the
	// hot ejection link, where queues grow, marks fire, and the two flow
	// controls actually diverge.
	FlitOcc sim.Time
}

// IncastResult is one run's outcome. Goodput counts only dispatched
// (non-duplicate, non-expired) messages; the latency percentiles are
// submission-to-dispatch. MaxLate is how far past its TTL any message
// was dispatched — the deadline contract makes it always zero.
type IncastResult struct {
	Cycles                            sim.Time
	Offered, Delivered, Expired, Shed int64
	Retransmits, Duplicates, Rejected int64
	Marks, MarkedPackets              int64
	MaxWindow                         int
	P50, P99, MaxLate                 sim.Time
}

// Goodput is delivered messages per thousand cycles.
func (r IncastResult) Goodput() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Delivered) * 1000 / float64(r.Cycles)
}

// RunIncast executes one seeded, deterministic incast run under a
// livelock watchdog. The watchdog counts protocol events (including
// duplicates and rejects), so a retransmission storm that still grinds
// forward is degradation, not livelock — only a truly wedged fabric
// trips it.
func RunIncast(cfg IncastConfig) (IncastResult, error) {
	if cfg.FanIn >= cfg.PEs {
		return IncastResult{}, fmt.Errorf("incast: fan-in %d needs more than %d PEs", cfg.FanIn, cfg.PEs)
	}
	mcfg := machine.DefaultConfig(cfg.PEs)
	if cfg.FlitOcc > 0 {
		mcfg.Net.FlitOcc = cfg.FlitOcc
	}
	m := machine.New(mcfg)
	defer m.Eng.Shutdown()
	rt := splitc.NewRuntime(m, splitc.DefaultConfig())
	//lint:allow sharedstate built on the host before RunErr starts; the proc bodies only read the config
	acfg := am.ReliableConfig()
	switch cfg.Mode {
	case FlowAdaptive:
		acfg = am.AdaptiveConfig()
	case FlowNone:
		acfg.Unclamped = true // keep the default 64-deep windows: 7 senders
		// together can hold 448 messages against 256 slots — overrun.
	}
	if cfg.QueueSlots > 0 {
		acfg.QueueSlots = cfg.QueueSlots
	}
	if cfg.RetryTimeout > 0 {
		acfg.RetryTimeout = cfg.RetryTimeout
		acfg.RetryBackoffMax = 32 * cfg.RetryTimeout
	}
	acfg.MessageTTL = cfg.TTL

	//lint:allow sharedstate eps[c.MyPE()] is a per-PE slot; the watchdog closure only sums endpoint stats read-only
	eps := make([]*am.Endpoint, cfg.PEs)
	var lats []sim.Time
	//lint:allow sharedstate each sender increments it exactly once after Flush behind the fan-in range guard; the increments commute and the consumer only polls for the final total -- revisit under the sharded heap (ROADMAP item 2)
	done := 0
	m.Eng.SetWatchdog(500000, 6, func() int64 {
		var sum int64
		for _, ep := range eps {
			if ep != nil {
				sum += ep.Sent + ep.Received + ep.Retransmits + ep.Duplicates + ep.Rejected + ep.Expired
			}
		}
		return sum
	})
	elapsed, err := rt.RunErr(func(c *splitc.Ctx) {
		ep := am.New(c, acfg)
		eps[c.MyPE()] = ep
		switch {
		case c.MyPE() == 0:
			ep.Register(am.HUser, func(c *splitc.Ctx, src int, args [4]uint64) {
				lats = append(lats, c.P.Now()-sim.Time(args[0]))
			})
			ep.PollUntil(func() bool { return done == cfg.FanIn })
		case c.MyPE() <= cfg.FanIn:
			for i := 0; i < cfg.Msgs; i++ {
				ep.Send(0, am.HUser, [4]uint64{uint64(c.P.Now())})
				if cfg.Gap > 0 {
					c.Compute(cfg.Gap)
				}
			}
			ep.Flush()
			done++
		}
	})
	if err != nil {
		return IncastResult{}, err
	}

	res := IncastResult{
		Cycles:        elapsed,
		Offered:       int64(cfg.FanIn * cfg.Msgs),
		MarkedPackets: m.Net.MarkedPackets,
	}
	recv := eps[0]
	res.Delivered, res.Expired = recv.Received, recv.Expired
	res.Duplicates, res.Rejected = recv.Duplicates, recv.Rejected
	for pe := 1; pe <= cfg.FanIn; pe++ {
		res.Retransmits += eps[pe].Retransmits
		res.Marks += eps[pe].Marks
		res.Shed += eps[pe].Shed
		if eps[pe].MaxWindow > res.MaxWindow {
			res.MaxWindow = eps[pe].MaxWindow
		}
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		res.P50 = lats[len(lats)/2]
		res.P99 = lats[len(lats)*99/100]
		if cfg.TTL > 0 {
			for _, l := range lats {
				if late := l - cfg.TTL; late > res.MaxLate {
					res.MaxLate = late
				}
			}
		}
	}
	return res, nil
}

// overloadGaps is the offered-load sweep: submission gap in cycles, open
// throttle first. A Send costs ≈500 cycles, so gap 0 offers ~2 msgs per
// kilocycle per sender against a receiver that drains ~4.7/kcyc total —
// 3x past saturation at full fan-in; gap 2000 sits just under the knee
// and gap 8000 is a lightly loaded control.
var overloadGaps = []sim.Time{0, 500, 2000, 8000}

func runOverload(o Options) []report.Table {
	// 200 messages per sender keeps the receive queue overcommitted for
	// the whole run in the unprotected arm — a short burst merely dents
	// goodput, sustained incast collapses it.
	pes, msgs := 8, 200
	if o.Quick {
		msgs = 80
	}
	return tables(
		func() report.Table { return goodputTable(pes, msgs) },
		func() report.Table { return fanInTable(pes, msgs) },
		func() report.Table { return deadlineTable(pes, msgs) },
	)
}

func mustIncast(cfg IncastConfig) IncastResult {
	r, err := RunIncast(cfg)
	if err != nil {
		panic(fmt.Sprintf("exp: incast run failed: %v", err))
	}
	return r
}

// goodputTable sweeps offered load at full fan-in across the three arms.
func goodputTable(pes, msgs int) report.Table {
	fan := pes - 1
	t := report.Table{
		Title: fmt.Sprintf("Incast goodput vs offered load: %d→1, %d msgs/sender (8 PEs)",
			fan, msgs),
		Headers: []string{"gap", "goodput none", "waste% none", "goodput static", "goodput adaptive", "p99 none", "p99 adaptive"},
	}
	modes := []FlowControl{FlowNone, FlowStatic, FlowAdaptive}
	res := sim.Points(len(overloadGaps)*3, func(i int) IncastResult {
		return mustIncast(IncastConfig{PEs: pes, FanIn: fan, Msgs: msgs, Gap: overloadGaps[i/3], Mode: modes[i%3]})
	})
	for i, gap := range overloadGaps {
		n, s, a := res[3*i], res[3*i+1], res[3*i+2]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", gap),
			fmt.Sprintf("%.2f/kcyc", n.Goodput()),
			fmt.Sprintf("%.0f%%", dupFrac(n)*100),
			fmt.Sprintf("%.2f/kcyc", s.Goodput()),
			fmt.Sprintf("%.2f/kcyc", a.Goodput()),
			fmt.Sprintf("%d", n.P99),
			fmt.Sprintf("%d", a.P99),
		})
	}
	t.Note = "without backpressure, incast overruns the receive queue and goodput collapses into retransmission waste; the AIMD window tracks the receiver and keeps p99 bounded"
	return t
}

func dupFrac(r IncastResult) float64 {
	total := r.Delivered + r.Duplicates + r.Rejected
	if total == 0 {
		return 0
	}
	return float64(r.Duplicates+r.Rejected) / float64(total)
}

// fanInTable sweeps hotspot degree at open throttle.
func fanInTable(pes, msgs int) report.Table {
	t := report.Table{
		Title:   fmt.Sprintf("Incast goodput vs fan-in at open throttle, %d msgs/sender (8 PEs)", msgs),
		Headers: []string{"fan-in", "goodput none", "retrans none", "goodput adaptive", "retrans adaptive", "marks echoed"},
	}
	fans := []int{1, 3, 7}
	modes := []FlowControl{FlowNone, FlowAdaptive}
	res := sim.Points(len(fans)*2, func(i int) IncastResult {
		return mustIncast(IncastConfig{PEs: pes, FanIn: fans[i/2], Msgs: msgs, Mode: modes[i%2]})
	})
	for i, fan := range fans {
		n, a := res[2*i], res[2*i+1]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d→1", fan),
			fmt.Sprintf("%.2f/kcyc", n.Goodput()),
			fmt.Sprintf("%d", n.Retransmits),
			fmt.Sprintf("%.2f/kcyc", a.Goodput()),
			fmt.Sprintf("%d", a.Retransmits),
			fmt.Sprintf("%d", a.Marks),
		})
	}
	t.Note = "collapse scales with fan-in; backpressure holds goodput near the receiver's dispatch rate at every hotspot degree"
	return t
}

// deadlineTable: graceful degradation under a per-message budget. The
// layer never dispatches a message past its TTL (max-late is zero by
// contract); what cannot be delivered in time is shed explicitly.
func deadlineTable(pes, msgs int) report.Table {
	fan := pes - 1
	t := report.Table{
		Title:   fmt.Sprintf("Deadline-bounded incast: %d→1 open throttle, adaptive (8 PEs)", fan),
		Headers: []string{"ttl", "delivered", "expired", "p99", "max late"},
	}
	ttls := []sim.Time{0, 200000, 50000, 10000}
	res := sim.Points(len(ttls), func(i int) IncastResult {
		return mustIncast(IncastConfig{PEs: pes, FanIn: fan, Msgs: msgs, Mode: FlowAdaptive, TTL: ttls[i]})
	})
	for i, r := range res {
		ttl := ttls[i]
		label := fmt.Sprintf("%d", ttl)
		if ttl == 0 {
			label = "none"
		}
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%d/%d", r.Delivered, r.Offered),
			fmt.Sprintf("%d", r.Expired),
			fmt.Sprintf("%d", r.P99),
			fmt.Sprintf("%d", r.MaxLate),
		})
	}
	t.Note = "a message past its budget is acknowledged (no retransmit storm) but not dispatched: stale work is shed, fresh work keeps flowing"
	return t
}
