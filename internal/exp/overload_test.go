package exp

import (
	"testing"

	"repro/internal/sim"
)

// The extH acceptance criteria, pinned as tests: deterministic results,
// goodput collapse past saturation without backpressure, sustained
// goodput with the adaptive window, and the expiry contract (nothing
// dispatched past its budget). Every run builds its own machine, so the
// tests run in parallel.

// incastOverload is the full-scale saturated incast: 7 senders at open
// throttle against one receiver, 200 messages each.
func incastOverload(mode FlowControl) IncastConfig {
	return IncastConfig{PEs: 8, FanIn: 7, Msgs: 200, Mode: mode}
}

// incastKnee is the same workload offered just below saturation — the
// goodput peak the overloaded arms are measured against.
func incastKnee(mode FlowControl) IncastConfig {
	cfg := incastOverload(mode)
	cfg.Gap = 2000
	return cfg
}

// TestIncastDeterministic runs the same config twice at once: the runs
// share no state, so they must agree exactly.
func TestIncastDeterministic(t *testing.T) {
	t.Parallel()
	cfg := incastOverload(FlowNone)
	runs := sim.Points(2, func(int) IncastResult { return mustIncast(cfg) })
	if runs[0] != runs[1] {
		t.Errorf("identical configs diverged:\n  %+v\n  %+v", runs[0], runs[1])
	}
}

// TestIncastCollapseWithoutBackpressure: with the window clamp removed,
// saturated incast overruns the receive queue and goodput collapses to
// less than half the same arm's below-saturation peak.
func TestIncastCollapseWithoutBackpressure(t *testing.T) {
	t.Parallel()
	over, err := RunIncast(incastOverload(FlowNone))
	if err != nil {
		t.Fatal(err)
	}
	knee, err := RunIncast(incastKnee(FlowNone))
	if err != nil {
		t.Fatal(err)
	}
	if over.Delivered != over.Offered {
		t.Errorf("delivered %d of %d: reliability must survive the collapse", over.Delivered, over.Offered)
	}
	if over.Rejected == 0 {
		t.Error("no queue overruns: the incast never actually overloaded the receiver")
	}
	if g, peak := over.Goodput(), knee.Goodput(); g > peak/2 {
		t.Errorf("unprotected goodput %.3f/kcyc did not collapse (peak %.3f, want >50%% drop)", g, peak)
	}
}

// TestIncastAdaptiveSustains: same saturated incast with the AIMD window
// — goodput stays within 20% of the arm's sweep peak, and the tail
// latency stays orders of magnitude below the collapsed arm's.
func TestIncastAdaptiveSustains(t *testing.T) {
	t.Parallel()
	over, err := RunIncast(incastOverload(FlowAdaptive))
	if err != nil {
		t.Fatal(err)
	}
	peak := over.Goodput()
	for _, gap := range overloadGaps[1:] {
		cfg := incastOverload(FlowAdaptive)
		cfg.Gap = gap
		r, err := RunIncast(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if g := r.Goodput(); g > peak {
			peak = g
		}
	}
	if g := over.Goodput(); g < 0.8*peak {
		t.Errorf("adaptive goodput %.3f/kcyc under overload fell below 80%% of sweep peak %.3f", g, peak)
	}
	if over.Marks == 0 {
		t.Error("no congestion echoes: the AIMD loop never received its signal")
	}
	if over.P99 > 100000 {
		t.Errorf("adaptive p99 %d cycles is unbounded under overload", over.P99)
	}
}

// TestIncastExpiryContract: under a per-message budget, every offered
// message is either dispatched within its budget or explicitly expired —
// none are lost, and none are dispatched late.
func TestIncastExpiryContract(t *testing.T) {
	t.Parallel()
	cfg := incastOverload(FlowAdaptive)
	cfg.TTL = 10000
	r, err := RunIncast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxLate != 0 {
		t.Errorf("a message was dispatched %d cycles past its budget", r.MaxLate)
	}
	if r.Expired == 0 {
		t.Error("a 10k-cycle budget under saturated incast shed nothing: expiry is not engaging")
	}
	if got := r.Delivered + r.Expired; got != r.Offered {
		t.Errorf("delivered %d + expired %d != offered %d", r.Delivered, r.Expired, r.Offered)
	}
}
