package machine_test

import (
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/em3d"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/splitc"
)

// The run-state digests below were recorded on the simulator before the
// remote path moved from per-transaction closures to typed events over
// fixed tables. Any refactor of the event kernel, the shell, the network
// or the write buffer must reproduce every one of them exactly: the
// digest covers final time, processed events, every hardware counter and
// every byte of DRAM, so a reordered event shows even when the rendered
// tables and application digests do not move.

// digestRun is one pinned run: it builds and runs a machine, checks the
// run exercised what it is meant to cover, and returns the machine.
type digestRun struct {
	name string
	want uint64
	run  func(t *testing.T) *machine.T3D
}

func em3dDigestConfig() em3d.Config {
	return em3d.Config{NodesPerPE: 24, Degree: 4, RemoteFrac: 0.4, Seed: 7, Iters: 2}
}

func digestKeys(pes, perPE int) [][]uint64 {
	rng := rand.New(rand.NewSource(3))
	out := make([][]uint64, pes)
	for pe := range out {
		for i := 0; i < perPE; i++ {
			out[pe] = append(out[pe], rng.Uint64()%(1<<40))
		}
	}
	return out
}

func em3dRun(v em3d.Version) func(t *testing.T) *machine.T3D {
	return func(t *testing.T) *machine.T3D {
		m := em3d.NewMachine(4)
		res, err := em3d.RunChecked(m, em3dDigestConfig(), v, em3d.DefaultKnobs(), em3d.Hooks{})
		if err != nil || !res.Validated {
			t.Fatalf("%v: err %v validated %v", v, err, res.Validated)
		}
		return m
	}
}

// sortRun is sample sort on 4 PEs; with a non-zero rate it runs on the
// reliable runtime under extF-style transient drops and corruptions.
func sortRun(rate float64) func(t *testing.T) *machine.T3D {
	return func(t *testing.T) *machine.T3D {
		cfg := machine.DefaultConfig(4)
		cfg.MemBytes = 2 << 20
		m := machine.New(cfg)
		rcfg := splitc.DefaultConfig()
		if rate > 0 {
			fault.Inject(m, fault.Config{Seed: 7, DropRate: rate / 2, CorruptRate: rate / 2})
			rcfg = splitc.ReliableConfig()
		}
		res, err := apps.SampleSortChecked(splitc.NewRuntime(m, rcfg), digestKeys(4, 24))
		if err != nil || !res.Validated {
			t.Fatalf("sample sort: err %v validated %v", err, res.Validated)
		}
		if rate > 0 && (m.Net.Dropped == 0 || m.Net.Corrupted == 0) {
			t.Fatalf("fault run dropped %d and corrupted %d packets; want both > 0", m.Net.Dropped, m.Net.Corrupted)
		}
		return m
	}
}

// recoverableRun is a recoverable EM3D run under a hard-fault plan.
func recoverableRun(v em3d.Version, fcfg fault.Config) func(t *testing.T) *machine.T3D {
	return func(t *testing.T) *machine.T3D {
		cfg := em3dDigestConfig()
		cfg.Reliable = true
		m := em3d.NewMachine(4)
		in := fault.Inject(m, fcfg)
		res, _, err := em3d.RunRecoverable(m, cfg, v, em3d.DefaultKnobs(), splitc.RecoveryConfig{}, in)
		if err != nil || !res.Validated {
			t.Fatalf("%v recoverable: err %v validated %v", v, err, res.Validated)
		}
		return m
	}
}

var digestRuns = []digestRun{
	{"em3d-Simple", 0x6a5abf454424d35c, em3dRun(em3d.Simple)},
	{"em3d-Ghost", 0xb8eabf7b5329178d, em3dRun(em3d.Ghost)},
	{"em3d-Unroll", 0xa87535e245a03ff3, em3dRun(em3d.Unroll)},
	{"em3d-Get", 0xe4e7d3e0a88c0bc8, em3dRun(em3d.Get)},
	{"em3d-Put", 0xcc459f7efd2eca87, em3dRun(em3d.Put)},
	{"em3d-Bulk", 0xaed47e3007b2896e, em3dRun(em3d.Bulk)},
	{"samplesort", 0x3478d7b22a59a37b, sortRun(0)},
	// extF-style: 5% of data packets dropped or corrupted; the corrupt
	// verdict exercises the remote-write path's damaged-payload store.
	{"extF-samplesort-5pct", 0x4baed774d14e13c0, sortRun(0.05)},
	// extG-style: the +x link out of PE 0 dies at a cycle when a Put
	// write is crossing it, so the dying link claims an in-flight packet
	// and the reliable runtime rewrites it over the detour.
	{"extG-dead-link", 0x546fe471f29f1fd7, func(t *testing.T) *machine.T3D {
		cfg := em3dDigestConfig()
		cfg.Reliable = true
		m := em3d.NewMachine(4)
		in := fault.Inject(m, fault.Config{})
		m.Eng.At(1056, func() { m.Net.FailLink(0, 0) })
		res, _, err := em3d.RunRecoverable(m, cfg, em3d.Put, em3d.DefaultKnobs(), splitc.RecoveryConfig{}, in)
		if err != nil || !res.Validated {
			t.Fatalf("Put recoverable: err %v validated %v", err, res.Validated)
		}
		if m.Net.HardDropped == 0 {
			t.Fatal("no in-flight packet was claimed by the dying link")
		}
		return m
	}},
	// A node crash under the read-bound Simple version: the rollback
	// interrupts procs blocked in remote reads whose responses are
	// still in flight.
	{"recovery-mid-read", 0xe9f5161ad31747aa, recoverableRun(em3d.Simple, fault.Config{Seed: 5, HardNodeFaults: 1, Horizon: 15000})},
}

func TestStateDigests(t *testing.T) {
	for _, r := range digestRuns {
		t.Run(r.name, func(t *testing.T) {
			m := r.run(t)
			defer m.Eng.Shutdown()
			if got := m.StateDigest(); got != r.want {
				t.Errorf("state digest %#016x, recorded %#016x", got, r.want)
			}
		})
	}
}

// TestStateDigestSeesState: the digest moves with time, with a counter
// and with a single byte of DRAM.
func TestStateDigestSeesState(t *testing.T) {
	m := machine.New(machine.DefaultConfig(2))
	defer m.Eng.Shutdown()
	base := m.StateDigest()
	m.Nodes[1].DRAM.Write64(4096*3+8, 1)
	mem := m.StateDigest()
	if mem == base {
		t.Fatal("a DRAM write did not change the digest")
	}
	m.Net.Dropped++
	if m.StateDigest() == mem {
		t.Fatal("a network counter did not change the digest")
	}
	m.Nodes[1].DRAM.Write64(4096*3+8, 0)
	m.Net.Dropped--
	if m.StateDigest() != base {
		t.Fatal("restoring the state did not restore the digest")
	}
}
