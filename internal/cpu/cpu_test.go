package cpu

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tlb"
	"repro/internal/wbuf"
)

// newLocalCPU builds a T3D-style CPU with no shell (all addresses local).
func newLocalCPU(eng *sim.Engine) *CPU {
	c := &CPU{
		Eng:   eng,
		Costs: DefaultCosts(),
		L1:    cache.New(cache.T3DL1Config()),
		TLB:   tlb.New(tlb.T3DConfig()),
		DRAM:  mem.New(mem.T3DNodeConfig(1 << 20)),
	}
	wb := wbuf.New(eng, 4, c)
	c.WB = wb
	wb.Start("wbuf")
	return c
}

// newWSCPU builds the workstation hierarchy (L1 + L2, small pages).
func newWSCPU(eng *sim.Engine) *CPU {
	c := &CPU{
		Eng:   eng,
		Costs: DefaultCosts(),
		L1:    cache.New(cache.T3DL1Config()),
		L2:    cache.New(cache.WorkstationL2Config()),
		TLB:   tlb.New(tlb.WorkstationConfig()),
		DRAM:  mem.New(mem.WorkstationConfig(4 << 20)),
	}
	wb := wbuf.New(eng, 4, c)
	c.WB = wb
	wb.Start("wbuf")
	return c
}

func runCPU(t *testing.T, mk func(*sim.Engine) *CPU, body func(p *sim.Proc, c *CPU)) {
	t.Helper()
	eng := sim.NewEngine()
	c := mk(eng)
	eng.Spawn("cpu", func(p *sim.Proc) { body(p, c) })
	eng.Run()
}

func TestStoreThenLoadRoundTrip(t *testing.T) {
	runCPU(t, newLocalCPU, func(p *sim.Proc, c *CPU) {
		c.Store64(p, 0x100, 0xCAFE)
		if v := c.Load64(p, 0x100); v != 0xCAFE {
			t.Errorf("load = %#x", v)
		}
	})
}

func TestLoad32Store32(t *testing.T) {
	runCPU(t, newLocalCPU, func(p *sim.Proc, c *CPU) {
		c.Store64(p, 0x200, 0x1111222233334444)
		c.MB(p)
		if v := c.Load32(p, 0x200); v != 0x33334444 {
			t.Errorf("low word = %#x", v)
		}
		if v := c.Load32(p, 0x204); v != 0x11112222 {
			t.Errorf("high word = %#x", v)
		}
		c.Store32(p, 0x200, 0xAAAA)
		c.MB(p)
		if v := c.Load64(p, 0x200); v != 0x111122220000AAAA {
			t.Errorf("word after 32-bit store = %#x", v)
		}
	})
}

func TestUnalignedAccessPanics(t *testing.T) {
	for _, f := range []func(p *sim.Proc, c *CPU){
		func(p *sim.Proc, c *CPU) { c.Load64(p, 0x101) },
		func(p *sim.Proc, c *CPU) { c.Store64(p, 0x104, 0) },
		func(p *sim.Proc, c *CPU) { c.Load32(p, 0x102) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("unaligned access did not panic")
				}
			}()
			runCPU(t, newLocalCPU, f)
		}()
	}
}

func TestLoadMissFillsLine(t *testing.T) {
	runCPU(t, newLocalCPU, func(p *sim.Proc, c *CPU) {
		c.DRAM.Write64(0x300, 7)
		c.DRAM.Write64(0x318, 9) // same 32 B line
		start := p.Now()
		if v := c.Load64(p, 0x300); v != 7 {
			t.Errorf("miss load = %d", v)
		}
		missCost := p.Now() - start
		start = p.Now()
		if v := c.Load64(p, 0x318); v != 9 {
			t.Errorf("line-mate load = %d", v)
		}
		hitCost := p.Now() - start
		if hitCost != c.Costs.LoadHit {
			t.Errorf("line-mate cost = %d, want hit cost %d", hitCost, c.Costs.LoadHit)
		}
		if missCost < 20 {
			t.Errorf("miss cost = %d, suspiciously cheap", missCost)
		}
	})
}

func TestWriteThroughUpdatesCacheAndMemory(t *testing.T) {
	runCPU(t, newLocalCPU, func(p *sim.Proc, c *CPU) {
		c.Load64(p, 0x400) // allocate the line
		c.Store64(p, 0x400, 42)
		// Cache sees the store immediately (write-through hit).
		if v := c.Load64(p, 0x400); v != 42 {
			t.Errorf("cached value = %d", v)
		}
		c.MB(p)
		if v := c.DRAM.Read64(0x400); v != 42 {
			t.Errorf("memory after drain = %d", v)
		}
	})
}

func TestLoadStallsOnConflictingBufferedWrite(t *testing.T) {
	// A load miss to a line with a pending write entry waits for the
	// drain and then observes the new value.
	runCPU(t, newLocalCPU, func(p *sim.Proc, c *CPU) {
		c.Store64(p, 0x500, 13) // not cached: write goes to buffer only
		if v := c.Load64(p, 0x500); v != 13 {
			t.Errorf("load after store = %d, want 13", v)
		}
	})
}

func TestMBWaitsForDrain(t *testing.T) {
	runCPU(t, newLocalCPU, func(p *sim.Proc, c *CPU) {
		for i := int64(0); i < 4; i++ {
			c.Store64(p, 0x600+i*64, 1)
		}
		if c.WB.Empty() {
			t.Fatal("buffer drained instantly; premise broken")
		}
		c.MB(p)
		if !c.WB.Empty() {
			t.Error("MB returned with entries still buffered")
		}
	})
}

func TestFlushLineDropsCachedCopy(t *testing.T) {
	runCPU(t, newLocalCPU, func(p *sim.Proc, c *CPU) {
		c.DRAM.Write64(0x700, 1)
		c.Load64(p, 0x700)
		c.DRAM.Write64(0x700, 2) // change memory under the cache
		if v := c.Load64(p, 0x700); v != 1 {
			t.Fatalf("expected stale cached 1, got %d", v)
		}
		start := p.Now()
		c.FlushLine(p, 0x700)
		if d := p.Now() - start; d != c.Costs.OffChip {
			t.Errorf("flush cost = %d, want %d", d, c.Costs.OffChip)
		}
		if v := c.Load64(p, 0x700); v != 2 {
			t.Errorf("post-flush load = %d, want 2", v)
		}
	})
}

func TestFlushCacheEmptiesL1(t *testing.T) {
	runCPU(t, newLocalCPU, func(p *sim.Proc, c *CPU) {
		for i := int64(0); i < 32; i++ {
			c.Load64(p, i*32)
		}
		c.FlushCache(p)
		if n := c.L1.ResidentLines(); n != 0 {
			t.Errorf("%d lines resident after FlushCache", n)
		}
	})
}

func TestWorkstationL2Path(t *testing.T) {
	runCPU(t, newWSCPU, func(p *sim.Proc, c *CPU) {
		c.DRAM.Write64(0x800, 5)
		c.Load64(p, 0x800) // memory -> L2 + L1
		// Evict from L1 with a conflicting line one L1-size away.
		c.Load64(p, 0x800+8<<10)
		start := p.Now()
		if v := c.Load64(p, 0x800); v != 5 {
			t.Errorf("L2 load = %d", v)
		}
		cost := p.Now() - start
		if cost != c.Costs.L2Hit {
			t.Errorf("L2 hit cost = %d, want %d", cost, c.Costs.L2Hit)
		}
	})
}

func TestWorkstationTLBChargesMisses(t *testing.T) {
	runCPU(t, newWSCPU, func(p *sim.Proc, c *CPU) {
		pageSize := c.TLB.Config().PageSize
		c.Load64(p, 0)
		hits, misses := c.TLB.Hits, c.TLB.Misses
		c.Load64(p, 8)        // same page
		c.Load64(p, pageSize) // new page
		if c.TLB.Hits != hits+1 || c.TLB.Misses != misses+1 {
			t.Errorf("TLB hits/misses = %d/%d", c.TLB.Hits-hits, c.TLB.Misses-misses)
		}
	})
}

func TestFetchHintIsNoOpWithoutShell(t *testing.T) {
	// On the workstation the Alpha fetch instruction is only a hint; the
	// drain must discard it rather than panic.
	runCPU(t, newWSCPU, func(p *sim.Proc, c *CPU) {
		c.FetchHint(p, 0x100)
		c.MB(p)
	})
}

func TestComputeAdvancesTime(t *testing.T) {
	runCPU(t, newLocalCPU, func(p *sim.Proc, c *CPU) {
		start := p.Now()
		c.Compute(p, 17)
		if d := p.Now() - start; d != 17 {
			t.Errorf("Compute(17) advanced %d", d)
		}
	})
}

func TestStatsCounters(t *testing.T) {
	runCPU(t, newLocalCPU, func(p *sim.Proc, c *CPU) {
		c.Load64(p, 0)
		c.Load64(p, 8)
		c.Store64(p, 16, 1)
		if c.Loads != 2 || c.Stores != 1 {
			t.Errorf("Loads=%d Stores=%d", c.Loads, c.Stores)
		}
	})
}

func TestWordHelpers(t *testing.T) {
	b := make([]byte, 8)
	putWord(b, 0x0102030405060708)
	if b[0] != 0x08 || b[7] != 0x01 {
		t.Errorf("putWord little-endian violated: %v", b)
	}
	if v := word(b); v != 0x0102030405060708 {
		t.Errorf("word = %#x", v)
	}
	b4 := make([]byte, 4)
	putWord(b4, 0xAABBCCDD)
	if v := word(b4); v != 0xAABBCCDD {
		t.Errorf("4-byte word = %#x", v)
	}
}

func TestByteManipulation(t *testing.T) {
	runCPU(t, newLocalCPU, func(p *sim.Proc, c *CPU) {
		v := uint64(0x1122334455667788)
		if b := c.ExtractByte(p, v, 0); b != 0x88 {
			t.Errorf("ExtractByte(0) = %#x", b)
		}
		if b := c.ExtractByte(p, v, 7); b != 0x11 {
			t.Errorf("ExtractByte(7) = %#x", b)
		}
		w := c.InsertByte(p, v, 2, 0xAB)
		if w != 0x1122334455AB7788 {
			t.Errorf("InsertByte = %#x", w)
		}
		start := p.Now()
		c.ExtractByte(p, v, 1)
		c.InsertByte(p, v, 1, 0)
		if d := p.Now() - start; d != 4 { // 1 + 3 cycles
			t.Errorf("byte ops cost %d cycles, want 4", d)
		}
	})
}

func TestByteIndexRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("byte index 8 did not panic")
		}
	}()
	runCPU(t, newLocalCPU, func(p *sim.Proc, c *CPU) {
		c.ExtractByte(p, 0, 8)
	})
}

// TestMergingStoreAllocatesNothing: a store that merges into a pending
// write-buffer entry stages its bytes on the stack, and the cache and
// the buffer copy them, so the steady-state store path allocates 0.
func TestMergingStoreAllocatesNothing(t *testing.T) {
	runCPU(t, newLocalCPU, func(p *sim.Proc, c *CPU) {
		c.Load64(p, 0x1000) // resident line: the store also writes through L1
		for i := int64(1); i <= 3; i++ {
			c.Store64(p, 0x10000*i, 1) // entries queued ahead, draining in turn
		}
		c.Store64(p, 0x1000, 2) // pending entry the measured stores merge into
		merges := c.WB.Merges
		allocs := testing.AllocsPerRun(1, func() { c.Store64(p, 0x1008, 3) })
		if got := c.WB.Merges - merges; got != 2 {
			t.Fatalf("%d of 2 stores merged; premise broken", got)
		}
		if allocs != 0 {
			t.Errorf("merging store allocated %.0f times, want 0", allocs)
		}
		if v := c.Load64(p, 0x1008); v != 3 {
			t.Errorf("load after merged store = %d, want 3", v)
		}
	})
}
