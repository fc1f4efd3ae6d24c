package machine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
)

// Stats aggregates the machine's hardware event counters: what the
// paper's gray-box methodology infers from latencies, the simulator can
// also report directly, which makes experiment post-mortems cheap.
type Stats struct {
	Loads, Stores     int64
	RemoteLoads       int64
	L1Hits, L1Misses  int64
	TLBHits, TLBMiss  int64
	WBPushes, WBMerge int64
	WBFullStalls      int64

	RemoteReads, RemoteWrites int64
	Prefetches, AnnexUpdates  int64

	NetPackets, NetPayload int64
	BarrierCrossings       int64
}

// Stats sums counters across every node.
func (m *T3D) Stats() Stats {
	var s Stats
	for _, n := range m.Nodes {
		s.Loads += n.CPU.Loads
		s.Stores += n.CPU.Stores
		s.RemoteLoads += n.CPU.RemoteLoads
		s.L1Hits += n.L1.Hits
		s.L1Misses += n.L1.Misses
		s.TLBHits += n.TLB.Hits
		s.TLBMiss += n.TLB.Misses
		s.WBPushes += n.WB.Pushes
		s.WBMerge += n.WB.Merges
		s.WBFullStalls += n.WB.FullStalls
		s.RemoteReads += n.Shell.RemoteReads
		s.RemoteWrites += n.Shell.RemoteWrites
		s.Prefetches += n.Shell.Prefetches
		s.AnnexUpdates += n.Shell.AnnexUpdates
	}
	s.NetPackets = m.Net.Packets
	s.NetPayload = m.Net.PayloadBytes
	s.BarrierCrossings = m.Fabric.Barrier.Crossings
	return s
}

// Render writes the counters as a readable block.
func (s Stats) Render(w io.Writer) {
	fmt.Fprintf(w, "machine counters:\n")
	fmt.Fprintf(w, "  loads %d (L1 %d hits / %d misses), stores %d\n", s.Loads, s.L1Hits, s.L1Misses, s.Stores)
	fmt.Fprintf(w, "  write buffer: %d pushes, %d merges, %d full stalls\n", s.WBPushes, s.WBMerge, s.WBFullStalls)
	fmt.Fprintf(w, "  TLB: %d hits / %d misses\n", s.TLBHits, s.TLBMiss)
	fmt.Fprintf(w, "  shell: %d remote reads, %d remote writes, %d prefetches, %d annex updates\n",
		s.RemoteReads, s.RemoteWrites, s.Prefetches, s.AnnexUpdates)
	fmt.Fprintf(w, "  network: %d packets, %d payload bytes\n", s.NetPackets, s.NetPayload)
	fmt.Fprintf(w, "  barrier crossings: %d\n", s.BarrierCrossings)
}

// StateDigest hashes the machine's simulated state: the engine's time
// and processed-event count, every Stats counter, the network's loss
// and marking counters, and the contents of every PE's DRAM. Two runs
// that executed the same events in the same order produce the same
// digest; an event-order change shows here even when a rendered table
// would hide it.
func (m *T3D) StateDigest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(m.Eng.Now())
	put(m.Eng.Events())
	st := reflect.ValueOf(m.Stats())
	for i := 0; i < st.NumField(); i++ {
		put(st.Field(i).Int())
	}
	put(m.Net.Dropped)
	put(m.Net.Corrupted)
	put(m.Net.HardDropped)
	put(m.Net.MarkedPackets)
	for _, n := range m.Nodes {
		put(int64(n.DRAM.Hash()))
	}
	return h.Sum64()
}
