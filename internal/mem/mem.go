// Package mem models the local DRAM system of a CRAY-T3D node (and, with
// different parameters, a workstation's main memory).
//
// The model captures the two structural features that drive the paper's
// local-memory results (§2): page-mode (open-row) DRAM, which makes an
// access to the currently open row of a bank cheaper than one that must
// precharge and activate a new row, and bank interleaving, which lets
// accesses to different banks proceed without waiting out a bank's full
// cycle time. Banks rotate every RowSize bytes, so addresses within one
// RowSize-aligned chunk share both a bank and a row.
//
// The DRAM also stores real data: loads and stores through the simulated
// machine move actual bytes, which is what lets the repository reproduce
// the paper's correctness hazards (stale reads past the write buffer,
// incoherent cached remote data) and not just its timing curves.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/sim"
)

// Config holds the structural and timing parameters of a DRAM system.
// All times are in processor cycles.
type Config struct {
	Size    int64 // total bytes; must be a multiple of RowSize*Banks
	Banks   int   // number of interleaved banks
	RowSize int64 // bytes per row; also the bank-interleave granularity

	// Read timing: latency to return data for an access hitting the open
	// row, the bank occupancy of such an access (the CAS-to-CAS interval,
	// shorter than the latency, so independent page-mode reads pipeline),
	// latency for a row miss, and how long a row miss occupies the bank
	// (precharge + activate + access + restore).
	ReadRowHit   sim.Time
	ReadHitOcc   sim.Time
	ReadRowMiss  sim.Time
	ReadMissBusy sim.Time

	// Write timing: the analogous parameters. A row-hit write is cheap
	// (CAS-only page-mode write); a row-miss write pays the full access.
	WriteRowHit   sim.Time
	WriteRowMiss  sim.Time
	WriteMissBusy sim.Time

	// ECCPenalty is the extra latency a read pays per word the SECDED
	// pipe corrects: the data must make a second trip through the
	// correction network before it can be forwarded. Charged only when
	// a correction actually fires, so fault-free runs are unaffected.
	ECCPenalty sim.Time
}

// T3DNodeConfig returns the memory parameters of a T3D node as measured in
// §2 of the paper: no L2 cache, 4 banks, 16 KB DRAM pages, a 22-cycle
// (145 ns) full access, +9 cycles off-page, and a 40-cycle bank cycle time
// (the 264 ns worst case at 64 KB strides).
func T3DNodeConfig(size int64) Config {
	return Config{
		Size:    size,
		Banks:   4,
		RowSize: 16 << 10,

		ReadRowHit:   22,
		ReadHitOcc:   5,
		ReadRowMiss:  31,
		ReadMissBusy: 40,

		WriteRowHit:   5,
		WriteRowMiss:  31,
		WriteMissBusy: 40,

		ECCPenalty: 7,
	}
}

// WorkstationConfig returns main-memory parameters for the DEC Alpha
// workstation of Figure 1: a 300 ns (45-cycle) access behind the L2 cache.
func WorkstationConfig(size int64) Config {
	return Config{
		Size:    size,
		Banks:   2,
		RowSize: 8 << 10,

		ReadRowHit:   45,
		ReadHitOcc:   20,
		ReadRowMiss:  52,
		ReadMissBusy: 60,

		WriteRowHit:   12,
		WriteRowMiss:  52,
		WriteMissBusy: 60,

		ECCPenalty: 10,
	}
}

// Host backing store. The DRAM's contents live in fixed 4 KB host
// pages, allocated on a page's first write; a page never written reads
// as zero and costs one nil pointer. A page is a host-storage detail
// only: it has nothing to do with the simulated DRAM rows (RowSize)
// that set timing, so sparse backing changes no simulated number.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
)

// DRAM is a banked page-mode memory holding real data.
type DRAM struct {
	cfg   Config
	pages []*[pageSize]byte // nil: never written since the last Zero/Restore, reads as zero
	banks []bank

	// SECDED state (ecc.go): the fault table maps word-aligned offsets
	// to their flipped-bit masks; ecc arms correction/detection.
	ecc    bool
	faults map[int64]*wordFault
	integ  IntegrityStats
}

type bank struct {
	openRow   int64    // row id currently open; -1 initially
	freeAt    sim.Time // when the open row can accept another CAS access
	cycleDone sim.Time // when a new row activation (row miss) may begin
}

// New returns a DRAM with the given configuration. All bytes are zero and
// all rows closed; no page is allocated until it is written.
func New(cfg Config) *DRAM {
	if cfg.Size <= 0 || cfg.Banks <= 0 || cfg.RowSize <= 0 {
		panic(fmt.Sprintf("mem: invalid config %+v", cfg))
	}
	if cfg.Size%(cfg.RowSize*int64(cfg.Banks)) != 0 {
		panic(fmt.Sprintf("mem: size %d not a multiple of RowSize*Banks", cfg.Size))
	}
	d := &DRAM{
		cfg:   cfg,
		pages: make([]*[pageSize]byte, (cfg.Size+pageSize-1)>>pageShift),
		banks: make([]bank, cfg.Banks),
	}
	for i := range d.banks {
		d.banks[i].openRow = -1
	}
	return d
}

// Snapshot copies the full memory image into buf (allocating when buf is
// too small) and returns it — the checkpoint primitive for rollback
// recovery. Unallocated pages come out as zeros. Only data is captured;
// bank timing state is transient and reconverges within one access.
func (d *DRAM) Snapshot(buf []byte) []byte {
	if int64(len(buf)) < d.cfg.Size {
		buf = make([]byte, d.cfg.Size)
	}
	buf = buf[:d.cfg.Size]
	d.load(0, buf)
	return buf
}

// Restore overwrites memory with a Snapshot image. All-zero pages of the
// image are released rather than copied. Every latent fault is
// overwritten with it — the property that lets a rollback clear poison
// the same way it clears any other corruption.
func (d *DRAM) Restore(img []byte) {
	if int64(len(img)) != d.cfg.Size {
		panic(fmt.Sprintf("mem: Restore image %d bytes, memory %d", len(img), d.cfg.Size))
	}
	var zero [pageSize]byte
	for i := range d.pages {
		chunk := img[i<<pageShift : min((i+1)<<pageShift, len(img))]
		if bytes.Equal(chunk, zero[:len(chunk)]) {
			d.pages[i] = nil
			continue
		}
		copy(d.pageAt(int64(i) << pageShift)[:], chunk)
	}
	d.clearAllFaults()
}

// Hash returns an FNV-1a hash of the memory contents: the index and
// bytes of every non-zero page, in address order. It depends only on
// what memory holds, not on which pages happen to be allocated.
func (d *DRAM) Hash() uint64 {
	h := fnv.New64a()
	var zero [pageSize]byte
	var idx [8]byte
	for i, pg := range d.pages {
		if pg == nil || *pg == zero {
			continue
		}
		binary.LittleEndian.PutUint64(idx[:], uint64(i))
		h.Write(idx[:])
		h.Write(pg[:])
	}
	return h.Sum64()
}

// Zero clears all memory by releasing every page — the fail-stop model
// of a node whose volatile state is lost in a crash. Latent faults are
// lost with it.
func (d *DRAM) Zero() {
	clear(d.pages)
	d.clearAllFaults()
}

// pageAt returns the page holding addr, allocating it on first use.
func (d *DRAM) pageAt(addr int64) *[pageSize]byte {
	pg := d.pages[addr>>pageShift]
	if pg == nil {
		pg = new([pageSize]byte)
		d.pages[addr>>pageShift] = pg
	}
	return pg
}

// load copies the bytes at [addr, addr+len(p)) into p, page by page.
// It allocates nothing: an unallocated page reads as zeros.
func (d *DRAM) load(addr int64, p []byte) {
	for len(p) > 0 {
		off := addr & (pageSize - 1)
		n := min(len(p), int(pageSize-off))
		if pg := d.pages[addr>>pageShift]; pg != nil {
			copy(p[:n], pg[off:])
		} else {
			clear(p[:n])
		}
		p = p[n:]
		addr += int64(n)
	}
}

// store copies p into [addr, addr+len(p)), allocating pages it touches
// for the first time.
func (d *DRAM) store(addr int64, p []byte) {
	for len(p) > 0 {
		n := copy(d.pageAt(addr)[addr&(pageSize-1):], p)
		p = p[n:]
		addr += int64(n)
	}
}

func (d *DRAM) load64(addr int64) uint64 {
	var b [8]byte
	d.load(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

func (d *DRAM) store64(addr int64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.store(addr, b[:])
}

// Config returns the configuration the DRAM was built with.
func (d *DRAM) Config() Config { return d.cfg }

// Size returns the memory size in bytes.
func (d *DRAM) Size() int64 { return d.cfg.Size }

// rowOf returns the globally unique row id for addr. Rows rotate across
// banks, so row id modulo Banks identifies the bank.
func (d *DRAM) rowOf(addr int64) int64 { return addr / d.cfg.RowSize }

// BankOf returns the bank index serving addr.
func (d *DRAM) BankOf(addr int64) int { return int(d.rowOf(addr) % int64(d.cfg.Banks)) }

func (d *DRAM) access(start sim.Time, addr int64, hitLat, hitOcc, missLat, missBusy sim.Time) (serviceStart, complete sim.Time, rowHit bool) {
	if addr < 0 || addr >= d.cfg.Size {
		panic(fmt.Sprintf("mem: access to %#x outside %d-byte memory", addr, d.cfg.Size))
	}
	row := d.rowOf(addr)
	b := &d.banks[row%int64(d.cfg.Banks)]
	if row == b.openRow {
		s := start
		if b.freeAt > s {
			s = b.freeAt
		}
		complete = s + hitLat
		b.freeAt = s + hitOcc
		if complete > b.cycleDone {
			b.cycleDone = complete
		}
		return s, complete, true
	}
	// Row miss: must wait for the previous full bank cycle (precharge)
	// before activating the new row.
	s := start
	if b.cycleDone > s {
		s = b.cycleDone
	}
	complete = s + missLat
	b.freeAt = complete
	b.cycleDone = s + missBusy
	b.openRow = row
	return s, complete, false
}

// ReadAccess models the timing of one read transaction (of any size up to
// a cache line) starting no earlier than start. It returns the completion
// time and whether the access hit the bank's open row.
func (d *DRAM) ReadAccess(start sim.Time, addr int64) (complete sim.Time, rowHit bool) {
	_, complete, rowHit = d.access(start, addr, d.cfg.ReadRowHit, d.cfg.ReadHitOcc, d.cfg.ReadRowMiss, d.cfg.ReadMissBusy)
	return complete, rowHit
}

// ReadAccessTimes is ReadAccess exposing also the bank service-start time:
// the instant the array is actually sampled, which is when readers must
// latch data to order correctly against concurrent writes.
func (d *DRAM) ReadAccessTimes(start sim.Time, addr int64) (serviceStart, complete sim.Time, rowHit bool) {
	return d.access(start, addr, d.cfg.ReadRowHit, d.cfg.ReadHitOcc, d.cfg.ReadRowMiss, d.cfg.ReadMissBusy)
}

// WriteAccess models the timing of one write transaction (a drained write
// buffer entry, up to a cache line wide).
func (d *DRAM) WriteAccess(start sim.Time, addr int64) (complete sim.Time, rowHit bool) {
	_, complete, rowHit = d.access(start, addr, d.cfg.WriteRowHit, d.cfg.WriteRowHit, d.cfg.WriteRowMiss, d.cfg.WriteMissBusy)
	return complete, rowHit
}

// Read copies len(p) bytes starting at addr into p. This is the raw
// host-window path: with ECC armed it still repairs single-bit faults
// in passing (the array read goes through the correction network), but
// it cannot signal poison — an uncorrectable word read here counts as a
// silent read. Simulated-machine paths use ReadChecked instead.
func (d *DRAM) Read(addr int64, p []byte) {
	d.checkRange(addr, len(p))
	if len(d.faults) > 0 {
		d.sweepRange(addr, int64(len(p)), false)
	}
	d.load(addr, p)
}

// Write copies p into memory starting at addr.
func (d *DRAM) Write(addr int64, p []byte) {
	d.checkRange(addr, len(p))
	d.clearOnWrite(addr, int64(len(p)))
	d.store(addr, p)
}

// Read64 returns the little-endian 64-bit word at addr (raw host
// window; see Read).
func (d *DRAM) Read64(addr int64) uint64 {
	d.checkRange(addr, 8)
	if len(d.faults) > 0 {
		d.sweepRange(addr, 8, false)
	}
	return d.load64(addr)
}

// Write64 stores v as a little-endian 64-bit word at addr.
func (d *DRAM) Write64(addr int64, v uint64) {
	d.checkRange(addr, 8)
	d.clearOnWrite(addr, 8)
	d.store64(addr, v)
}

// Read32 returns the little-endian 32-bit word at addr (raw host
// window; see Read).
func (d *DRAM) Read32(addr int64) uint32 {
	d.checkRange(addr, 4)
	if len(d.faults) > 0 {
		d.sweepRange(addr, 4, false)
	}
	var b [4]byte
	d.load(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// Write32 stores v as a little-endian 32-bit word at addr.
func (d *DRAM) Write32(addr int64, v uint32) {
	d.checkRange(addr, 4)
	d.clearOnWrite(addr, 4)
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	d.store(addr, b[:])
}

func (d *DRAM) checkRange(addr int64, n int) {
	if addr < 0 || addr+int64(n) > d.cfg.Size {
		panic(fmt.Sprintf("mem: data access [%#x,%#x) outside %d-byte memory", addr, addr+int64(n), d.cfg.Size))
	}
}
