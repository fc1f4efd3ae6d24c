// Package shell models the support circuitry Cray wrapped around each
// Alpha 21064 in the T3D (§1.2 of the paper): the DTB Annex segment
// registers, remote reads and writes over the torus, the binding-prefetch
// FIFO, the block transfer engine, fetch&increment registers, atomic
// swap, the hardware barrier wire, and the user-level message queue.
//
// A Fabric ties one Shell per node to the network and to every node's
// DRAM and cache, so remote operations can act on real data at the right
// simulated times. The shell implements cpu.Remote, which is how loads,
// stores and fetch hints with non-zero Annex indexes reach it.
package shell

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/sim"
	"repro/internal/wbuf"
)

// Node is the shell's view of one T3D node: its memory, its cache (for
// invalidate mode), and its shell.
type Node struct {
	PE    int
	DRAM  *mem.DRAM
	L1    *cache.Cache
	Shell *Shell
}

// Fabric is the collection of nodes, the network between them, and the
// machine-wide barrier wire.
type Fabric struct {
	Eng     *sim.Engine
	Net     *net.Network
	Cfg     Config
	Nodes   []*Node
	Barrier *Barrier
	Eureka  *Eureka
}

// NewFabric creates an empty fabric for the given network. Nodes are
// attached with AddNode; the barrier spans all network nodes.
func NewFabric(eng *sim.Engine, network *net.Network, cfg Config) *Fabric {
	return &Fabric{
		Eng:     eng,
		Net:     network,
		Cfg:     cfg,
		Barrier: NewBarrier(eng, network.Nodes(), cfg.BarrierArm, cfg.BarrierProp),
		Eureka:  NewEureka(eng, cfg.BarrierArm, cfg.BarrierProp),
	}
}

// AddNode attaches the next node (PE = current count) and returns its
// shell.
func (f *Fabric) AddNode(dram *mem.DRAM, l1 *cache.Cache) *Shell {
	pe := len(f.Nodes)
	if pe >= f.Net.Nodes() {
		panic("shell: more nodes than the network has")
	}
	s := &Shell{
		eng:          f.Eng,
		cfg:          &f.Cfg,
		fab:          f,
		pe:           pe,
		writeChanged: sim.NewSignal(fmt.Sprintf("shell%d.writeAck", pe)),
		pqSig:        sim.NewSignal(fmt.Sprintf("shell%d.prefetch", pe)),
		msgSig:       sim.NewSignal(fmt.Sprintf("shell%d.msg", pe)),
		bltSig:       sim.NewSignal(fmt.Sprintf("shell%d.blt", pe)),
		arrival:      sim.NewSignal(fmt.Sprintf("shell%d.arrival", pe)),
		cePending:    make([]bool, f.Net.Nodes()),
	}
	s.annex[addr.LocalAnnex] = AnnexEntry{PE: pe}
	f.Nodes = append(f.Nodes, &Node{PE: pe, DRAM: dram, L1: l1, Shell: s})
	return s
}

// AnnexEntry is one DTB Annex register: a target processor and the
// function code controlling remote reads through it.
type AnnexEntry struct {
	PE     int
	Cached bool // cached (line-fill) vs uncached (single-word) reads
}

// Shell is the per-node support circuitry.
type Shell struct {
	eng *sim.Engine
	cfg *Config
	fab *Fabric
	pe  int

	annex [addr.AnnexEntries]AnnexEntry

	reqPort   sim.Resource // outgoing load/request injection
	storePort sim.Resource // outgoing write/prefetch drain injection
	respPort  sim.Resource // outgoing response/ack injection

	outstandingWrites int
	writeChanged      *sim.Signal

	tx sim.Slots[tx] // outstanding remote transactions

	// pq is the prefetch FIFO: a ring of PrefetchEntries slots, allocated
	// on the first prefetch, pqLen of them in use from pqHead on.
	pq            []pqSlot
	pqHead, pqLen int
	pqSig         *sim.Signal

	// arrival fires whenever a remote write lands in this node's memory —
	// the event a polling receiver's cache-invalidate would surface. The
	// reliable active-message layer parks on it between retransmissions.
	arrival *sim.Signal

	fi      [2]uint64
	swapReg uint64

	stolen sim.Time

	msgs     []Message
	msgSig   *sim.Signal
	handler  func(p *sim.Proc, m Message)
	intrPort sim.Resource // serializes receive interrupts on this CPU

	bltBusy bool
	bltSig  *sim.Signal
	// bltPoison latches that a completed BLT transfer moved at least one
	// uncorrectable word since the last BLTWait/BLTDiscard; bltPoisonAddr
	// is the first such source word.
	bltPoison     bool
	bltPoisonAddr int64

	drainer Drainer

	// cePending latches, per source PE, that a data packet from that
	// source arrived carrying the network's congestion-experienced mark
	// (net.Config.MarkThreshold). The bit stays set until software reads
	// it with TakeCongestionMark — the hardware register a receiver-side
	// protocol polls to echo congestion back to the sender.
	cePending []bool

	// Stats.
	RemoteReads, RemoteWrites, Prefetches, AnnexUpdates int64
	// CongestionMarks counts marked data-packet arrivals at this node.
	CongestionMarks int64
}

type pqSlot struct {
	filled   bool
	val      uint64
	poisoned bool  // the response carried an uncorrectable-error marker
	srcPE    int   // responder, for the poison report
	addr     int64 // source word offset, for the poison report
}

// PE returns the shell's node number.
func (s *Shell) PE() int { return s.pe }

// Config returns the shell timing parameters.
func (s *Shell) Config() *Config { return s.cfg }

func (s *Shell) node(pe int) *Node { return s.fab.Nodes[pe] }

// --- DTB Annex ---

// Drainer lets the shell wait for the node's write buffer; the machine
// wiring installs the buffer here.
type Drainer interface {
	WaitEmpty(p *sim.Proc)
}

// SetDrainer installs the node's write buffer for annex-update ordering.
func (s *Shell) SetDrainer(d Drainer) { s.drainer = d }

// SetAnnex updates annex register idx to point at processor pe with the
// given read function code, using the store-conditional sequence measured
// at 23 cycles (§3.2). Entry 0 is hard-wired to the local node.
//
// The annex write is a store-conditional, so it travels through the same
// write buffer as data stores and issues strictly behind them: buffered
// stores always translate through the OLD binding. Without this ordering
// a runtime that rebinds the register while stores are in flight would
// silently misroute them to the new target node.
//
//t3d:hotpath
func (s *Shell) SetAnnex(p *sim.Proc, idx, pe int, cached bool) {
	if idx <= 0 || idx >= addr.AnnexEntries {
		//lint:allow hotalloc annex misuse panic; valid rebinds never format
		panic(fmt.Sprintf("shell: annex index %d not writable", idx))
	}
	if pe < 0 || pe >= len(s.fab.Nodes) {
		//lint:allow hotalloc annex misuse panic; valid rebinds never format
		panic(fmt.Sprintf("shell: annex target PE %d out of range", pe))
	}
	if s.drainer != nil {
		s.drainer.WaitEmpty(p)
	}
	p.Wait(s.cfg.AnnexUpdate)
	s.AnnexUpdates++
	s.annex[idx] = AnnexEntry{PE: pe, Cached: cached}
	//lint:allow hotalloc the tracer's variadic boxes on every rebind; a zero-cost disarmed Trace is the ROADMAP item-1 follow-up
	s.eng.Trace("shell.annex", "pe%d annex[%d] <- pe=%d cached=%v", s.pe, idx, pe, cached)
}

// Annex returns the current contents of annex register idx.
func (s *Shell) Annex(idx int) AnnexEntry { return s.annex[idx] }

// Cached implements cpu.Remote: the function code of pa's annex entry.
func (s *Shell) Cached(pa int64) bool { return s.annex[addr.Annex(pa)].Cached }

// TakeStolen implements cpu.Remote: cycles consumed by message-receive
// interrupts, charged to the CPU at its next instruction boundary.
func (s *Shell) TakeStolen() sim.Time {
	d := s.stolen
	s.stolen = 0
	return d
}

// Steal charges d cycles against this node's CPU at its next instruction
// boundary — the mechanism message-receive interrupts already use. Fault
// injection uses it to model OS-jitter stalls (the paper's 25 µs OS trap
// cost, §7.4, arriving at an inopportune moment).
func (s *Shell) Steal(d sim.Time) {
	if d > 0 {
		s.stolen += d
	}
}

// ArrivalSignal fires whenever a remote write lands in this node's
// memory. A polling receiver can park on it with WaitSignalTimeout
// instead of burning cycles in an idle poll loop; the reliable
// active-message layer uses it to pace retransmission timeouts.
func (s *Shell) ArrivalSignal() *sim.Signal { return s.arrival }

// noteCongestion latches that a marked data packet from src arrived.
func (s *Shell) noteCongestion(src int) {
	s.cePending[src] = true
	s.CongestionMarks++
}

// TakeCongestionMark reads and clears this node's congestion-experienced
// latch for src: true means at least one data packet from src queued
// past the network's mark threshold since the last read. It models a
// hardware status bit, so it is free of simulated cost; the adaptive
// active-message layer polls it when acknowledging src and echoes the
// bit back through the ack word.
func (s *Shell) TakeCongestionMark(src int) bool {
	m := s.cePending[src]
	s.cePending[src] = false
	return m
}

// checkReachable verifies that the degraded torus still connects this
// node to pe in both directions — every shell transaction needs the
// reverse path for its response or acknowledgement. On failure it panics
// with a *net.PartitionError (an error value), which unwinds the issuing
// proc and surfaces from sim.RunErr as a *ProcFailure wrapping
// net.ErrPartitioned: an explicit, inspectable failure instead of a hang
// on a response that can never arrive.
//
//t3d:hotpath
func (s *Shell) checkReachable(pe int) {
	if pe == s.pe || s.fab.Net.DeadLinks() == 0 {
		return
	}
	if !s.fab.Net.Reachable(s.pe, pe) {
		//lint:allow hotalloc partition failure path; the fault-free fast path returns before any check
		panic(&net.PartitionError{Src: s.pe, Dst: pe})
	}
	if !s.fab.Net.Reachable(pe, s.pe) {
		//lint:allow hotalloc partition failure path; the fault-free fast path returns before any check
		panic(&net.PartitionError{Src: pe, Dst: s.pe})
	}
}

// SnapshotRegs captures the shell's architected soft state — the
// fetch&increment registers and the swap buffer — for checkpointing.
type RegSnapshot struct {
	FI   [2]uint64
	Swap uint64
}

// SnapshotRegs returns the shell's checkpointable register state.
func (s *Shell) SnapshotRegs() RegSnapshot {
	return RegSnapshot{FI: s.fi, Swap: s.swapReg}
}

// RestoreRegs reinstates register state captured by SnapshotRegs.
func (s *Shell) RestoreRegs(r RegSnapshot) {
	s.fi = r.FI
	s.swapReg = r.Swap
}

// --- Remote transactions ---

// txKind is the operation an outstanding transaction carries out.
type txKind uint8

const (
	txReadWord txKind = iota // uncached read: one word back
	txReadLine               // cached read: a line fill back
	txPrefetch               // binding prefetch: a word into the FIFO
	txFetchInc               // fetch&increment: a register value back
	txSwap                   // atomic swap: the old word back
	txWrite                  // remote write: an acknowledgement back
)

// requestBytes is each kind's request payload; a write carries its data.
var requestBytes = [...]int{txReadWord: 8, txReadLine: 8, txPrefetch: 8, txFetchInc: 8, txSwap: 16}

// tx is one slot of the shell's transaction table: an outstanding remote
// operation. Every event and packet of the transaction names the slot by
// its index, so its request/response chain runs on typed events. The
// slot is freed when its last hold is dropped: the response (or ack)
// being delivered, and for a blocking operation its issuing proc reading
// the result. A proc interrupted mid-read therefore never sees its late
// response land in a slot handed to a new read.
type tx struct {
	kind          txKind
	holds         uint8
	poisoned      bool
	marked        bool
	fault         net.Fault
	pe, size, reg int   // remote node, response bytes, FI register or FIFO slot
	off           int64 // remote offset: the word read or swapped, or the line written
	corrected     int   // ECC corrections holding the response back
	mask          uint32
	val           uint64
	data          [wbuf.LineSize]byte
	done          sim.Signal // fired when the response is delivered
}

// Event and packet opcodes of a transaction, in the order they occur.
const (
	opInject   uint32 = iota // the request leaves this node's request port
	opArrive                 // packet: the request reaches the remote node
	opService                // the remote node reads memory or a register
	opComplete               // a remote read access has completed
	opRespond                // the response enters the remote response port
	opRespSend               // the response leaves the remote response port
	opReturn                 // packet: the response reaches this node
	opFill                   // a prefetch response enters the FIFO
)

// issue takes a free slot of the transaction table for an operation on
// node pe at off, with holds holds, and returns it cleared but for its
// signal.
//
//t3d:hotpath
func (s *Shell) issue(kind txKind, holds uint8, pe int, off int64) (uint64, *tx) {
	i := s.tx.Take()
	t := s.tx.At(i)
	*t = tx{kind: kind, holds: holds, pe: pe, off: off, done: t.done}
	return i, t
}

// drop releases one hold on slot i and frees the slot with the last.
func (s *Shell) drop(i uint64) {
	t := s.tx.At(i)
	if t.holds--; t.holds == 0 {
		s.tx.Free(i)
	}
}

// call completes blocking transaction i, issued with two holds (its
// response and the waiting proc): it injects the request after the
// request-port cost, waits for the response, copies a line fill into
// line, and pays accept cycles of acceptance.
//
//t3d:hotpath
func (s *Shell) call(p *sim.Proc, i uint64, t *tx, line []byte, accept sim.Time, what string) (val uint64, poisoned bool) {
	defer s.drop(i)
	t.done.SetName(what)
	start := s.reqPort.Acquire(s.eng.Now(), s.cfg.ReqInject)
	s.eng.AtCall(start+s.cfg.ReqInject, s, opInject, i)
	p.WaitSignalDeadline(&t.done, what)
	copy(line, t.data[:len(line)])
	val, poisoned = t.val, t.poisoned
	p.Wait(accept)
	return val, poisoned
}

// ReadWord implements cpu.Remote: a blocking uncached remote read.
//
//t3d:hotpath
func (s *Shell) ReadWord(p *sim.Proc, pa int64, size int) uint64 {
	return s.read(p, pa, txReadWord, size, nil)
}

// ReadLine implements cpu.Remote: a blocking cached remote read filling
// one cache line. The extra line-fill transaction makes it slower than an
// uncached read (114 vs 91 cycles) despite moving four times the data.
//
//t3d:hotpath
func (s *Shell) ReadLine(p *sim.Proc, pa int64, line []byte) {
	s.read(p, pa, txReadLine, len(line), line)
}

// read runs an uncached read or a line fill of the remote word at pa.
//
//t3d:hotpath
func (s *Shell) read(p *sim.Proc, pa int64, kind txKind, size int, line []byte) uint64 {
	e := s.annex[addr.Annex(pa)]
	s.checkReachable(e.PE)
	off := addr.Offset(pa)
	s.RemoteReads++
	accept, what := s.cfg.RespAccept+s.cfg.CachedFillExtra, "remote line fill"
	if kind == txReadWord {
		accept, what = s.cfg.RespAccept, "remote read"
		//lint:allow hotalloc the tracer's variadic boxes on every read; a zero-cost disarmed Trace is the ROADMAP item-1 follow-up
		s.eng.Trace("shell.read", "pe%d uncached read pe%d+%#x", s.pe, e.PE, off)
	}
	p.Wait(s.cfg.IssueExtra)
	i, t := s.issue(kind, 2, e.PE, off)
	t.size = size
	val, poisoned := s.call(p, i, t, line, accept, what)
	if poisoned {
		// The response arrived but its payload is an uncorrectable
		// memory error: trap on the requesting processor rather than
		// hand garbage to the program, or install the line in its cache.
		//lint:allow hotalloc poison trap failure path; clean responses never allocate
		panic(&mem.PoisonError{PE: e.PE, Addr: off})
	}
	return val
}

// Arrive implements net.Receiver: a transaction's request reached the
// remote node (opArrive) or its response came back (opReturn).
func (s *Shell) Arrive(op uint32, tag uint64, f net.Fault, marked bool) {
	t := s.tx.At(tag)
	t.fault, t.marked = f, marked
	s.Handle(op, tag)
}

// Handle implements sim.Handler: one step of transaction arg's chain.
// The requesting shell runs every step, those at the remote node too,
// which it reaches through the slot's pe.
func (s *Shell) Handle(op uint32, arg uint64) {
	t := s.tx.At(arg)
	rn := s.node(t.pe)
	now := s.eng.Now()
	switch op {
	case opInject:
		s.fab.Net.Send(s.pe, t.pe, requestBytes[t.kind], net.Control, net.Delivery{To: s, Op: opArrive, Tag: arg})
	case opArrive:
		switch t.kind {
		case txFetchInc:
			s.eng.AtCall(now+s.cfg.FIAccess, s, opService, arg)
		case txSwap:
			complete, _ := rn.DRAM.ReadAccess(now+s.cfg.SwapAccess, t.off)
			s.eng.AtCall(complete, s, opService, arg)
		case txWrite:
			complete, _ := rn.DRAM.WriteAccess(now+s.cfg.WriteRemoteProc, t.off)
			s.eng.AtCall(complete, s, opService, arg)
		default:
			service, complete, rowHit := rn.DRAM.ReadAccessTimes(now+s.cfg.RemoteReadProc, t.off)
			if !rowHit {
				complete += s.cfg.RemoteRowMissExtra
			}
			s.eng.AtCall(service, s, opService, arg)
			s.eng.AtCall(complete, s, opComplete, arg)
		}
	case opService: // the remote node's memory access or register read
		switch t.kind {
		case txFetchInc:
			t.val = rn.Shell.fi[t.reg]
			rn.Shell.fi[t.reg]++
			s.Handle(opRespond, arg)
		case txSwap:
			// The read half goes through the SECDED pipe like any other
			// read; the write half installs the new value regardless, which
			// also clears the word's fault state.
			old, _, poisoned := rn.DRAM.Read64Checked(t.off)
			rn.DRAM.Write64(t.off, t.val)
			if s.cfg.InvalidateMode {
				rn.L1.Invalidate(t.off)
			}
			t.val, t.poisoned = old, poisoned
			s.Handle(opRespond, arg)
		case txWrite:
			// Data is visible once the remote DRAM write completes; only the
			// acknowledgement takes the longer pipeline back out. A transient
			// fault damages the payload but not the envelope: a dropped
			// payload writes nothing, a corrupted one writes bit-flipped
			// bytes — in both cases the hardware still acknowledges, so only
			// an end-to-end check can notice.
			data := t.data
			if t.fault == net.FaultCorrupt {
				for k := range data {
					data[k] ^= 0xA5
				}
			}
			for lo, hi := wbuf.NextRun(t.mask, 0); lo < wbuf.LineSize && t.fault != net.FaultDrop; lo, hi = wbuf.NextRun(t.mask, hi) {
				rn.DRAM.Write(t.off+int64(lo), data[lo:hi])
			}
			if s.cfg.InvalidateMode {
				// Cache-invalidate mode: flush the target line on the owning
				// node whether or not it is cached (§4.4).
				rn.L1.Invalidate(t.off)
			}
			if t.marked {
				rn.Shell.noteCongestion(s.pe)
			}
			rn.Shell.arrival.Fire(s.eng)
			s.eng.AtCall(s.eng.Now()+s.cfg.WriteAckExtra, s, opRespond, arg)
		default:
			// Latch the data when the bank samples the array, not when the
			// full access completes — a concurrently queued write behind us
			// at the bank must not leak into this read. The data streams
			// through the SECDED pipe on its way out: single-bit faults are
			// repaired (the response is held back ECCPenalty per
			// correction), double-bit faults tag the response poisoned
			// instead of trusting the bytes.
			var pw []int64
			t.corrected, pw = rn.DRAM.ReadChecked(t.off, t.data[:t.size])
			t.poisoned = len(pw) > 0
			switch t.size {
			case 8:
				t.val = binary.LittleEndian.Uint64(t.data[:])
			case 4:
				t.val = uint64(binary.LittleEndian.Uint32(t.data[:]))
			}
		}
	case opComplete:
		if t.corrected > 0 {
			s.eng.AtCall(now+rn.DRAM.Config().ECCPenalty*sim.Time(t.corrected), s, opRespond, arg)
		} else {
			s.Handle(opRespond, arg)
		}
	case opRespond:
		inj := s.cfg.RespInject
		if t.kind == txWrite {
			inj = s.cfg.AckInject
		}
		s.eng.AtCall(rn.Shell.respPort.Acquire(now, inj)+inj, s, opRespSend, arg)
	case opRespSend:
		s.fab.Net.Send(t.pe, s.pe, t.size, net.Control, net.Delivery{To: s, Op: opReturn, Tag: arg})
	case opReturn:
		switch t.kind {
		case txWrite:
			s.drop(arg)
			s.outstandingWrites--
			s.writeChanged.Fire(s.eng)
		case txPrefetch:
			// The response still pays the off-chip acceptance path on its
			// way into the prefetch FIFO, plus the FIFO's own management
			// cost.
			s.eng.AtCall(now+s.cfg.RespAccept+s.cfg.PrefetchFillExtra, s, opFill, arg)
		default:
			t.done.Fire(s.eng)
			s.drop(arg)
		}
	case opFill:
		q := &s.pq[t.reg]
		q.filled, q.val, q.poisoned = true, t.val, t.poisoned
		s.drop(arg)
		s.pqSig.Fire(s.eng)
	}
}

// --- Remote writes and prefetch injection ---

// InjectEntry implements cpu.Remote: it disposes of a drained write
// buffer entry bound for the shell — a remote write or a prefetch
// request. p is the write buffer's drain proc.
func (s *Shell) InjectEntry(p *sim.Proc, e *wbuf.Entry) {
	switch e.Kind {
	case wbuf.KindWrite:
		s.injectWrite(p, e)
	case wbuf.KindFetch:
		s.injectFetch(p, e)
	default:
		panic("shell: unknown entry kind")
	}
}

func (s *Shell) injectWrite(p *sim.Proc, e *wbuf.Entry) {
	ae := s.annex[addr.Annex(e.LineAddr)]
	s.checkReachable(ae.PE)
	lineOff := addr.Offset(e.LineAddr)
	nbytes := bits.OnesCount32(e.Mask)
	flits := sim.Time((nbytes + 7) / 8)
	inj := s.cfg.WriteHeader + flits*s.cfg.WriteFlit8
	// Writes drain through their own injection path: loads bypass the
	// write stream entirely (§3.4 — the reads-bypass-writes ordering).
	start := s.storePort.Acquire(p.Now(), inj)
	p.WaitUntil(start + inj)
	// The write has now left the processor: the shell status bit covers
	// it from here until the ack returns (§4.3).
	s.outstandingWrites++
	s.RemoteWrites++
	s.eng.Trace("shell.write", "pe%d remote write pe%d+%#x (%dB)", s.pe, ae.PE, lineOff, nbytes)
	// The slot keeps the data: the buffer entry is reused after drain.
	i, t := s.issue(txWrite, 1, ae.PE, lineOff)
	t.mask, t.data = e.Mask, e.Data
	s.fab.Net.Send(s.pe, ae.PE, nbytes, net.Data, net.Delivery{To: s, Op: opArrive, Tag: i})
}

func (s *Shell) injectFetch(p *sim.Proc, e *wbuf.Entry) {
	ae := s.annex[addr.Annex(e.FetchAddr)]
	s.checkReachable(ae.PE)
	off := addr.Offset(e.FetchAddr)
	if s.pqLen >= s.cfg.PrefetchEntries {
		panic(fmt.Sprintf("shell: prefetch queue overflow on PE %d (>%d outstanding)",
			s.pe, s.cfg.PrefetchEntries))
	}
	if s.pq == nil {
		s.pq = make([]pqSlot, s.cfg.PrefetchEntries)
	}
	slot := (s.pqHead + s.pqLen) % len(s.pq)
	s.pq[slot] = pqSlot{srcPE: ae.PE, addr: off}
	s.pqLen++
	s.Prefetches++
	s.eng.Trace("shell.prefetch", "pe%d prefetch pe%d+%#x (%d outstanding)", s.pe, ae.PE, off, s.pqLen)
	start := s.storePort.Acquire(p.Now(), s.cfg.FetchInject)
	p.WaitUntil(start + s.cfg.FetchInject)
	// The cheaper FetchInject replaced the request-port cost.
	i, t := s.issue(txPrefetch, 1, ae.PE, off)
	t.size, t.reg = 8, slot
	s.Handle(opInject, i)
}

// popPrefetch waits for the FIFO head's response, pays the 23-cycle
// memory-mapped load (§5.2) and removes the head, trapping on a poisoned
// response if trap is set.
func (s *Shell) popPrefetch(p *sim.Proc, trap bool) uint64 {
	head := &s.pq[s.pqHead]
	for !head.filled {
		p.WaitSignalDeadline(s.pqSig, "prefetch response")
	}
	p.Wait(s.cfg.PopCost)
	s.pqHead = (s.pqHead + 1) % len(s.pq)
	s.pqLen--
	if trap && head.poisoned {
		panic(&mem.PoisonError{PE: head.srcPE, Addr: head.addr})
	}
	return head.val
}

// PopPrefetch pops the head of the prefetch FIFO, stalling until its
// response has arrived. Popping with nothing outstanding is a program
// error.
func (s *Shell) PopPrefetch(p *sim.Proc) uint64 {
	if s.pqLen == 0 {
		panic(fmt.Sprintf("shell: PE %d popped an empty prefetch queue", s.pe))
	}
	return s.popPrefetch(p, true)
}

// DiscardPrefetches pops and drops every outstanding prefetch, poisoned
// or not — the rollback path's drain, where the epoch's data is being
// thrown away anyway and a poison trap would re-enter recovery.
func (s *Shell) DiscardPrefetches(p *sim.Proc) {
	for s.pqLen > 0 {
		s.popPrefetch(p, false)
	}
}

// PrefetchOutstanding reports the number of FIFO slots in use.
func (s *Shell) PrefetchOutstanding() int { return s.pqLen }

// --- Write-completion status ---

// ReadStatus reads the shell status register (23 cycles, off-chip) and
// reports whether any remote writes that have left the processor are
// still unacknowledged. Writes still sitting in the write buffer are NOT
// reflected — the §4.3 pitfall; callers must MB first.
func (s *Shell) ReadStatus(p *sim.Proc) bool {
	p.Wait(s.cfg.StatusRead)
	return s.outstandingWrites > 0
}

// WaitWritesComplete polls ReadStatus until all outstanding remote writes
// have been acknowledged, exactly as the Split-C blocking write does.
func (s *Shell) WaitWritesComplete(p *sim.Proc) {
	for s.ReadStatus(p) {
		p.CheckDeadline("write completion")
	}
}

// OutstandingWrites exposes the raw counter for tests.
func (s *Shell) OutstandingWrites() int { return s.outstandingWrites }

// --- Fetch&increment and swap ---

// FetchInc atomically reads and increments fetch&increment register reg
// (0 or 1) on node pe, returning the pre-increment value. Cost is a full
// shell round trip — "essentially the cost of a remote read" (§7.4).
func (s *Shell) FetchInc(p *sim.Proc, pe, reg int) uint64 {
	if reg < 0 || reg > 1 {
		panic("shell: fetch&increment register index out of range")
	}
	s.checkReachable(pe)
	p.Wait(s.cfg.IssueExtra)
	i, t := s.issue(txFetchInc, 2, pe, 0)
	t.size, t.reg = 8, reg
	val, _ := s.call(p, i, t, nil, s.cfg.RespAccept, "fetch&increment")
	return val
}

// PokeFI sets a fetch&increment register directly: a configuration
// helper for program setup, charged no simulated time.
func (s *Shell) PokeFI(reg int, v uint64) { s.fi[reg] = v }

// FI reads a fetch&increment register without simulated cost (tests).
func (s *Shell) FI(reg int) uint64 { return s.fi[reg] }

// Swap atomically exchanges v with the 64-bit word at pa (which may be
// remote), returning the old value. The shell serializes swaps at the
// target node, so concurrent swaps to one location never both win.
func (s *Shell) Swap(p *sim.Proc, pa int64, v uint64) uint64 {
	ae := s.annex[addr.Annex(pa)]
	s.checkReachable(ae.PE)
	off := addr.Offset(pa)
	p.Wait(s.cfg.IssueExtra)
	i, t := s.issue(txSwap, 2, ae.PE, off)
	t.size, t.val = 8, v
	old, poisoned := s.call(p, i, t, nil, s.cfg.RespAccept, "atomic swap")
	if poisoned {
		panic(&mem.PoisonError{PE: ae.PE, Addr: off})
	}
	return old
}

// --- Barrier ---

// BarrierStart arms this node's barrier bit (the start-barrier of the
// fuzzy barrier, §7.5) and returns a ticket for BarrierEnd.
func (s *Shell) BarrierStart(p *sim.Proc) BarrierTicket {
	return s.fab.Barrier.Arm(p)
}

// BarrierEnd completes the fuzzy barrier: it blocks until the wire went
// high for the ticket's generation and resets this node's view.
func (s *Shell) BarrierEnd(p *sim.Proc, t BarrierTicket) {
	s.fab.Barrier.Wait(p, t)
}

// BarrierDone samples the wire without blocking — the polling form of
// BarrierEnd, for code that must keep servicing message queues while the
// barrier collects (the checkpoint quiesce protocol).
func (s *Shell) BarrierDone(t BarrierTicket) bool {
	return s.fab.Barrier.Done(t)
}

// EurekaTrigger raises the machine-wide global-OR wire.
func (s *Shell) EurekaTrigger(p *sim.Proc) { s.fab.Eureka.Trigger(p) }

// EurekaPoll samples the global-OR wire.
func (s *Shell) EurekaPoll(p *sim.Proc) bool { return s.fab.Eureka.Poll(p) }

// EurekaReset lowers the wire; callers must barrier around the reset.
func (s *Shell) EurekaReset(p *sim.Proc) { s.fab.Eureka.Reset(p) }
