package machine

import (
	"runtime"
	"testing"
)

// TestNominalMemoryAt2048PEs builds the largest machine the paper's
// contention sweep uses at the default 16 MB per node. DRAM is backed
// by pages allocated on first write, so the 32 GB of simulated memory
// costs only its page tables; the whole machine must fit in heapBound,
// which is under 1/100 of the dense image.
func TestNominalMemoryAt2048PEs(t *testing.T) {
	const (
		pes       = 2048
		heapBound = 300 << 20
	)
	cfg := DefaultConfig(pes)
	dense := uint64(pes) * uint64(cfg.MemBytes)
	if cfg.MemBytes != 16<<20 || heapBound > dense/100 {
		t.Fatalf("test premise: %d B per node, bound %d B against %d B dense", cfg.MemBytes, heapBound, dense)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := New(cfg)
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(m)
	m.Eng.Shutdown()
	t.Logf("%d PEs × %d MB: heap grew %.1f MB (dense DRAM alone would be %d MB)", pes, cfg.MemBytes>>20, float64(grew)/(1<<20), dense>>20)
	if grew > heapBound {
		t.Errorf("building %d PEs grew the heap by %d B, bound %d B", pes, grew, heapBound)
	}
}
