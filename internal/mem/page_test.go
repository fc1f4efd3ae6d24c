package mem

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// allocatedPages counts the host pages backing d.
func allocatedPages(d *DRAM) int {
	n := 0
	for _, pg := range d.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

func TestUntouchedPageReadsZeroWithoutAlloc(t *testing.T) {
	d := testDRAM()
	d.Write64(0, 0x1122334455667788)
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = 0xEE
	}
	// A read straddling two untouched pages.
	d.Read(5*pageSize-32, buf)
	if !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Fatalf("untouched pages read %x, want zeros", buf)
	}
	if v := d.Read64(7*pageSize - 4); v != 0 {
		t.Fatalf("Read64 across untouched pages = %#x", v)
	}
	allocs := testing.AllocsPerRun(100, func() {
		d.Read(5*pageSize-32, buf)
		d.Read64(9 * pageSize)
		d.ReadChecked(11*pageSize, buf[:32])
	})
	if allocs != 0 {
		t.Errorf("reads of untouched pages allocate %.1f times per run, want 0", allocs)
	}
	if got := allocatedPages(d); got != 1 {
		t.Errorf("%d pages allocated after one write and reads, want 1", got)
	}
}

func TestWriteAcrossPageBoundary(t *testing.T) {
	d := testDRAM()
	at := int64(3*pageSize - 3)
	d.Write64(at, 0x0807060504030201)
	if got := allocatedPages(d); got != 2 {
		t.Fatalf("page-straddling Write64 allocated %d pages, want 2", got)
	}
	if v := d.Read64(at); v != 0x0807060504030201 {
		t.Fatalf("Read64 back = %#x", v)
	}
	if v := d.Read32(at + 1); v != 0x05040302 {
		t.Fatalf("Read32 across the boundary = %#x", v)
	}
}

func TestZeroAndRestoreReleasePages(t *testing.T) {
	d := testDRAM()
	for pg := int64(0); pg < 8; pg++ {
		d.Write32(pg*pageSize+100, uint32(pg)+1)
	}
	if got := allocatedPages(d); got != 8 {
		t.Fatalf("%d pages after 8 page writes, want 8", got)
	}
	d.Zero()
	if got := allocatedPages(d); got != 0 {
		t.Fatalf("Zero left %d pages allocated", got)
	}

	d.Write32(0, 1)
	d.Write32(2*pageSize, 2)
	img := make([]byte, d.Size())
	d.Restore(img)
	if got := allocatedPages(d); got != 0 {
		t.Fatalf("Restore of an all-zero image left %d pages allocated", got)
	}

	img[6*pageSize+17] = 0x5A
	d.Restore(img)
	if got := allocatedPages(d); got != 1 {
		t.Fatalf("Restore of a one-page image allocated %d pages, want 1", got)
	}
	dirty := bytes.Repeat([]byte{0xFF}, int(d.Size()))
	if snap := d.Snapshot(dirty); !bytes.Equal(snap, img) {
		t.Fatal("Snapshot into a dirty buffer does not reproduce the restored image")
	}
}

func TestInjectFlipOnUntouchedPage(t *testing.T) {
	d := testDRAM()
	d.SetECC(true)
	at := int64(4*pageSize + 24)
	d.InjectFlip(at, 1<<9)
	if got := allocatedPages(d); got != 1 {
		t.Fatalf("flip on an untouched page allocated %d pages, want 1", got)
	}
	var raw [8]byte
	d.load(at, raw[:])
	if binary.LittleEndian.Uint64(raw[:]) != 1<<9 {
		t.Fatalf("flipped word holds %x, want the flip mask", raw)
	}
	v, corrected, poisoned := d.Read64Checked(at)
	if v != 0 || corrected != 1 || poisoned {
		t.Fatalf("checked read = %#x corrected=%d poisoned=%v, want 0, 1, false", v, corrected, poisoned)
	}
	conservation(t, d)
}

// refDRAM is a dense reference for the paged DRAM's data and SECDED
// semantics: one []byte holding every byte, and a fault table kept by
// the rules ecc.go documents.
type refDRAM struct {
	data   []byte
	ecc    bool
	faults map[int64]*wordFault
	integ  IntegrityStats
}

func (r *refDRAM) retire(w int64, f *wordFault) {
	delete(r.faults, w)
	r.integ.Overwritten++
	if f.multiCounted && !f.detected {
		r.integ.MultiOverwritten++
	}
}

func (r *refDRAM) xor(w int64, mask uint64) {
	binary.LittleEndian.PutUint64(r.data[w:], binary.LittleEndian.Uint64(r.data[w:])^mask)
}

func (r *refDRAM) sweep(addr, n int64, signal bool) (corrected int, poisoned []int64) {
	for w := addr &^ 7; w < addr+n; w += 8 {
		f := r.faults[w]
		switch {
		case f == nil:
		case !r.ecc:
			r.integ.SilentReads++
		case f.uncorrectable() && signal:
			if !f.detected {
				f.detected = true
				r.integ.Poisoned++
			}
			r.integ.PoisonReads++
			poisoned = append(poisoned, w)
		case f.uncorrectable():
			r.integ.SilentReads++
		default:
			r.xor(w, f.mask)
			delete(r.faults, w)
			r.integ.Corrected++
			corrected++
		}
	}
	return corrected, poisoned
}

func (r *refDRAM) write(addr int64, p []byte) {
	end := addr + int64(len(p))
	for w := addr &^ 7; w < end; w += 8 {
		f := r.faults[w]
		if f == nil {
			continue
		}
		for b := max(w, addr); b < min(w+8, end); b++ {
			f.mask &^= 0xFF << (8 * uint(b-w))
		}
		if f.mask == 0 {
			r.retire(w, f)
		}
	}
	copy(r.data[addr:], p)
}

func (r *refDRAM) flip(w int64, mask uint64) {
	r.xor(w, mask)
	f := r.faults[w]
	if f == nil {
		f = &wordFault{}
		r.faults[w] = f
		r.integ.FaultWords++
	}
	f.mask ^= mask
	if f.mask == 0 {
		r.retire(w, f)
		return
	}
	if !f.multiCounted && f.uncorrectable() {
		f.multiCounted = true
		r.integ.MultiWords++
	}
}

func (r *refDRAM) scrubAll() (repaired, uncorrectable int) {
	for w, f := range r.faults {
		switch {
		case !r.ecc:
		case f.uncorrectable():
			uncorrectable++
		default:
			r.xor(w, f.mask)
			delete(r.faults, w)
			r.integ.Scrubbed++
			repaired++
		}
	}
	return repaired, uncorrectable
}

func (r *refDRAM) overwriteAll(img []byte) {
	copy(r.data, img)
	for w, f := range r.faults {
		r.retire(w, f)
	}
}

// FuzzDRAMPages drives the paged DRAM and the dense reference through
// one operation sequence decoded from the input — reads and writes of
// every width at addresses clustered on page boundaries, bit flips,
// scrubs, snapshots, restores and zeroing — and requires identical
// bytes, identical read results and identical IntegrityStats after
// every operation.
func FuzzDRAMPages(f *testing.F) {
	f.Add([]byte{1, 2, 1, 0xFD, 9, 0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF, 0x11, 0x22, 0x33, 0, 1, 0xFE})
	f.Add([]byte{1, 5, 3, 0xFC, 1, 0, 0, 0, 0, 0, 0, 0, 6, 1, 0xFC, 12, 7, 0, 0, 8, 0, 0, 9, 0, 0, 1, 3, 0xFC, 4})
	f.Add([]byte{0, 4, 2, 0, 0x30, 0x81, 5, 2, 0, 3, 0, 7, 2, 0, 0, 5, 2, 0, 1, 2, 0, 8, 7, 1, 2, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		const size = 64 << 10
		d := New(T3DNodeConfig(size))
		r := &refDRAM{data: make([]byte, size), faults: map[int64]*wordFault{}}
		d.SetECC(next()&1 == 1)
		r.ecc = d.ECC()
		// addr picks a page and an offset of at most ±128 bytes from its
		// start, so multi-byte operations keep straddling page boundaries.
		addr := func(n int64) int64 {
			a := int64(next()%(size/pageSize))*pageSize + int64(int8(next()))
			return min(max(a, 0), size-n)
		}
		bytesOf := func(n int) []byte {
			p := make([]byte, n)
			for i := range p {
				p[i] = next()
			}
			return p
		}
		var img []byte
		got, want := make([]byte, size), make([]byte, size)
		for step := 0; len(in) > 0; step++ {
			op := next() % 12
			switch op {
			case 0, 1: // Read / ReadChecked
				n := int64(next()%48) + 1
				a := addr(n)
				p, q := make([]byte, n), make([]byte, n)
				if op == 0 {
					d.Read(a, p)
					r.sweep(a, n, false)
				} else {
					c, pw := d.ReadChecked(a, p)
					rc, rpw := r.sweep(a, n, true)
					if c != rc || len(pw) != len(rpw) {
						t.Fatalf("step %d: ReadChecked(%#x,%d) corrected %d poisoned %v, reference %d %v", step, a, n, c, pw, rc, rpw)
					}
				}
				copy(q, r.data[a:])
				if !bytes.Equal(p, q) {
					t.Fatalf("step %d: read(%#x,%d) = %x, reference %x", step, a, n, p, q)
				}
			case 2: // Write
				n := int(next()%48) + 1
				a := addr(int64(n))
				p := bytesOf(n)
				d.Write(a, p)
				r.write(a, p)
			case 3: // Read32 / Read64
				if next()&1 == 0 {
					a := addr(4)
					v := d.Read32(a)
					r.sweep(a, 4, false)
					if rv := binary.LittleEndian.Uint32(r.data[a:]); v != rv {
						t.Fatalf("step %d: Read32(%#x) = %#x, reference %#x", step, a, v, rv)
					}
				} else {
					a := addr(8)
					v := d.Read64(a)
					r.sweep(a, 8, false)
					if rv := binary.LittleEndian.Uint64(r.data[a:]); v != rv {
						t.Fatalf("step %d: Read64(%#x) = %#x, reference %#x", step, a, v, rv)
					}
				}
			case 4: // Write32 / Write64
				if next()&1 == 0 {
					a, p := addr(4), bytesOf(4)
					d.Write32(a, binary.LittleEndian.Uint32(p))
					r.write(a, p)
				} else {
					a, p := addr(8), bytesOf(8)
					d.Write64(a, binary.LittleEndian.Uint64(p))
					r.write(a, p)
				}
			case 5: // Read64Checked
				a := addr(8)
				v, c, poisoned := d.Read64Checked(a)
				rc, rpw := r.sweep(a, 8, true)
				if rv := binary.LittleEndian.Uint64(r.data[a:]); v != rv || c != rc || poisoned != (len(rpw) > 0) {
					t.Fatalf("step %d: Read64Checked(%#x) = %#x,%d,%v, reference %#x,%d,%v", step, a, v, c, poisoned, rv, rc, rpw)
				}
			case 6: // InjectFlip: one or two bits
				a := addr(8) &^ 7
				mask := uint64(1) << (next() % 64)
				if b := next(); b&0x80 != 0 {
					mask |= 1 << (b % 64)
				}
				d.InjectFlip(a, mask)
				r.flip(a, mask)
			case 7: // ScrubAll
				rep, unc := d.ScrubAll()
				rrep, runc := r.scrubAll()
				if rep != rrep || unc != runc {
					t.Fatalf("step %d: ScrubAll = %d,%d, reference %d,%d", step, rep, unc, rrep, runc)
				}
			case 8: // Snapshot into a dirty buffer
				buf := bytes.Repeat([]byte{0xA5}, size)
				img = d.Snapshot(buf)
				if !bytes.Equal(img, r.data) {
					t.Fatalf("step %d: Snapshot differs from the reference", step)
				}
			case 9: // Restore the last snapshot, or a sparse image
				if img == nil || next()&1 == 0 {
					img = make([]byte, size)
					img[addr(1)] = next() | 1
				}
				d.Restore(img)
				r.overwriteAll(img)
			case 10: // Zero
				d.Zero()
				r.overwriteAll(make([]byte, size))
			case 11: // ECC toggle
				d.SetECC(!d.ECC())
				r.ecc = d.ECC()
			}
			d.load(0, got)
			copy(want, r.data)
			if !bytes.Equal(got, want) {
				i := 0
				for got[i] == want[i] {
					i++
				}
				t.Fatalf("step %d (op %d): byte %#x = %#x, reference %#x", step, op, i, got[i], want[i])
			}
			if d.Integrity() != r.integ || d.LatentWords() != len(r.faults) {
				t.Fatalf("step %d (op %d): integrity %+v latent %d, reference %+v latent %d",
					step, op, d.Integrity(), d.LatentWords(), r.integ, len(r.faults))
			}
		}
		for i, pg := range d.pages {
			if pg == nil && !bytes.Equal(r.data[i*pageSize:(i+1)*pageSize], make([]byte, pageSize)) {
				t.Fatalf("page %d unallocated but the reference holds data there", i)
			}
		}
	})
}
