// Package wbuf models the Alpha 21064 write buffer: four entries, each one
// cache line (32 bytes) wide, with write merging.
//
// The write buffer is central to several of the paper's findings:
//
//   - Local writes cost ~3 cycles while the buffer absorbs them, rising to
//     the DRAM drain rate once it fills (§2.3, Figure 2).
//   - Stores to the same line merge into one entry, so small-stride writes
//     are cheaper than line-stride writes (§2.3).
//   - Loads bypass pending writes to *different* physical addresses. Annex
//     synonyms — the same memory word reached through two different Annex
//     indexes — have different physical addresses, so the bypass check
//     misses them and a read can return stale data while the write sits in
//     the buffer (§3.4). This package reproduces that hazard faithfully.
//   - The shell's remote-write status bit reflects only writes that have
//     left the buffer, so completion polling must first drain it (§4.3).
//   - Prefetch (fetch-hint) requests travel through the write buffer on
//     their way to the shell (§5.2).
//
// The buffer itself knows nothing about DRAM or the network: a Sink
// supplied by the node model disposes of drained entries and accounts for
// their time.
package wbuf

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// LineSize is the width of one write-buffer entry in bytes, matching the
// 21064 cache line.
const LineSize = 32

// Kind distinguishes the traffic that rides the write buffer.
type Kind int

const (
	// KindWrite is an ordinary store (local or remote).
	KindWrite Kind = iota
	// KindFetch is a binding-prefetch request heading for the shell.
	KindFetch
)

// Entry is one write-buffer slot.
type Entry struct {
	Kind     Kind
	LineAddr int64          // line-aligned physical address, annex bits included
	Mask     uint32         // valid-byte mask within the line (writes only)
	Data     [LineSize]byte // write data (writes only)

	// FetchAddr is the exact word address a KindFetch entry requests.
	FetchAddr int64

	draining bool
}

// NextRun returns the first contiguous run [lo, hi) of valid bytes in a
// write mask at or after offset from; lo is LineSize when none is left.
// A drained write lands as one memory write per run.
func NextRun(mask uint32, from int) (lo, hi int) {
	m := mask >> uint(from)
	if from >= LineSize || m == 0 {
		return LineSize, LineSize
	}
	lo = from + bits.TrailingZeros32(m)
	return lo, lo + bits.TrailingZeros32(^(mask >> uint(lo)))
}

// Sink disposes of one drained entry, blocking p for however long the
// drain occupies the buffer slot (a local DRAM write, or injection of a
// remote write/prefetch packet into the shell).
type Sink interface {
	Drain(p *sim.Proc, e *Entry)
}

// Buffer is the write buffer of one node.
type Buffer struct {
	eng     *sim.Engine
	sink    Sink
	ring    []Entry // one slot per hardware entry; n occupied from head on
	head, n int
	slots   [4]Entry    // the ring's storage at the 21064's depth and below
	changed *sim.Signal // fired on every push and pop

	// Stats for probes and tests.
	Pushes, Merges, FullStalls int64
}

// New returns a write buffer with the given number of slots, draining into
// sink. Start must be called before the simulation runs.
func New(eng *sim.Engine, capacity int, sink Sink) *Buffer {
	if capacity <= 0 {
		panic("wbuf: capacity must be positive")
	}
	b := &Buffer{eng: eng, sink: sink, changed: sim.NewSignal("wbuf.changed")}
	b.ring = b.slots[:min(capacity, len(b.slots))]
	if capacity > len(b.slots) {
		b.ring = make([]Entry, capacity)
	}
	return b
}

// Start spawns the drain daemon. Call exactly once.
func (b *Buffer) Start(name string) {
	b.eng.SpawnDaemon(name, b.drainLoop)
}

func (b *Buffer) drainLoop(p *sim.Proc) {
	for {
		for b.n == 0 {
			p.WaitSignal(b.changed)
		}
		e := &b.ring[b.head]
		e.draining = true
		b.sink.Drain(p, e)
		b.head = (b.head + 1) % len(b.ring)
		b.n--
		b.changed.Fire(b.eng)
	}
}

// slot returns the i-th occupied entry, oldest first.
func (b *Buffer) slot(i int) *Entry { return &b.ring[(b.head+i)%len(b.ring)] }

// Len reports the number of occupied slots.
func (b *Buffer) Len() int { return b.n }

// Empty reports whether the buffer is drained.
func (b *Buffer) Empty() bool { return b.n == 0 }

// PushWrite inserts a store of data at addr, blocking p if the buffer is
// full. Stores to a line with an existing, not-yet-draining write entry
// merge into it (write merging) and consume no new slot.
//
//t3d:hotpath
func (b *Buffer) PushWrite(p *sim.Proc, addr int64, data []byte) {
	if len(data) == 0 || int64(len(data)) > LineSize {
		//lint:allow hotalloc size misuse panic; valid stores never format
		panic(fmt.Sprintf("wbuf: write of %d bytes", len(data)))
	}
	line := addr &^ (LineSize - 1)
	off := addr - line
	if off+int64(len(data)) > LineSize {
		//lint:allow hotalloc line-crossing misuse panic; valid stores never format
		panic(fmt.Sprintf("wbuf: write at %#x crosses a line boundary", addr))
	}
	b.Pushes++
	for i := 0; i < b.n; i++ {
		if s := b.slot(i); s.Kind == KindWrite && s.LineAddr == line && !s.draining {
			copy(s.Data[off:], data)
			s.Mask |= mask(off, len(data))
			b.Merges++
			return
		}
	}
	e := Entry{Kind: KindWrite, LineAddr: line, Mask: mask(off, len(data))}
	copy(e.Data[off:], data)
	b.pushSlot(p, e)
}

// mask is the valid-byte mask of n bytes at line offset off.
func mask(off int64, n int) uint32 { return (1<<uint(n) - 1) << uint(off) }

// PushFetch inserts a binding-prefetch request for the word at addr,
// blocking p if the buffer is full. Fetch entries never merge.
//
//t3d:hotpath
func (b *Buffer) PushFetch(p *sim.Proc, addr int64) {
	b.Pushes++
	b.pushSlot(p, Entry{Kind: KindFetch, LineAddr: addr &^ (LineSize - 1), FetchAddr: addr})
}

//t3d:hotpath
func (b *Buffer) pushSlot(p *sim.Proc, e Entry) {
	if b.n >= len(b.ring) {
		b.FullStalls++
		for b.n >= len(b.ring) {
			p.WaitSignal(b.changed)
		}
	}
	*b.slot(b.n) = e
	b.n++
	b.changed.Fire(b.eng)
}

// WaitEmpty blocks p until every entry has drained — the memory-barrier
// wait. The 4-cycle MB issue cost is charged by the CPU, not here.
//
//t3d:hotpath
func (b *Buffer) WaitEmpty(p *sim.Proc) {
	for b.n > 0 {
		p.WaitSignal(b.changed)
	}
}

// ConflictsWith reports whether a pending write entry covers the line
// containing addr. The check uses full physical addresses, so Annex
// synonyms escape it — deliberately, to match the hardware hazard.
func (b *Buffer) ConflictsWith(addr int64) bool {
	line := addr &^ (LineSize - 1)
	for i := 0; i < b.n; i++ {
		if e := b.slot(i); e.Kind == KindWrite && e.LineAddr == line {
			return true
		}
	}
	return false
}

// WaitNoConflict blocks p until no pending write entry covers addr's line
// (the load/store conflict stall of the 21064).
//
//t3d:hotpath
func (b *Buffer) WaitNoConflict(p *sim.Proc, addr int64) {
	for b.ConflictsWith(addr) {
		p.WaitSignal(b.changed)
	}
}
