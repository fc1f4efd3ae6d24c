package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hostfs"
)

func testSnap(jobID string, epoch int, pes int, memLen int64, fill byte) *Snapshot {
	s := &Snapshot{Meta: Meta{
		JobID: jobID, Epoch: epoch, Cycles: int64(epoch) * 1000,
		PEs: pes, MemLen: memLen,
		Heap: make([]int64, pes), Regs: make([][3]uint64, pes),
	}}
	for pe := 0; pe < pes; pe++ {
		s.Heap[pe] = int64(65536 + pe)
		s.Regs[pe] = [3]uint64{uint64(pe), uint64(epoch), 7}
		m := make([]byte, memLen)
		for i := range m {
			m[i] = fill ^ byte(i) ^ byte(pe)
		}
		s.Mem = append(s.Mem, m)
	}
	return s
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := testSnap("j00000001", 3, 2, 256, 0xA5)
	data, err := Encode(s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.JobID != s.JobID || got.Epoch != s.Epoch || got.Cycles != s.Cycles ||
		got.PEs != s.PEs || got.MemLen != s.MemLen {
		t.Fatalf("meta mismatch: got %+v want %+v", got.Meta, s.Meta)
	}
	for pe := range s.Mem {
		if string(got.Mem[pe]) != string(s.Mem[pe]) {
			t.Fatalf("pe%d image mismatch", pe)
		}
		if got.Heap[pe] != s.Heap[pe] || got.Regs[pe] != s.Regs[pe] {
			t.Fatalf("pe%d heap/regs mismatch", pe)
		}
	}
}

// Every single-byte corruption of a checkpoint file must be a detected
// refusal — header CRC, payload CRC, or size check — never a decode
// that silently returns different state.
func TestDecodeDetectsBitFlips(t *testing.T) {
	s := testSnap("j00000002", 1, 2, 64, 0x3C)
	data, err := Encode(s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	stride := 1
	if testing.Short() {
		stride = 7
	}
	for i := 0; i < len(data); i += stride {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if got, err := Decode(mut); err == nil {
			// The only tolerable "success" would be bit-identical state,
			// which a flipped byte cannot give under CRC32 here.
			t.Fatalf("flip at byte %d decoded cleanly: %+v", i, got.Meta)
		}
	}
	for _, cut := range []int{0, 1, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		}
	}
}

func TestStoreWriteLoadRetention(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(hostfs.OS(), dir, 2, t.Logf)
	var names, digests []string
	for epoch := 1; epoch <= 4; epoch++ {
		name, dig, err := st.Write(testSnap("j00000003", epoch, 2, 128, byte(epoch)))
		if err != nil {
			t.Fatalf("write epoch %d: %v", epoch, err)
		}
		names = append(names, name)
		digests = append(digests, dig)
	}
	// Retention 2: epochs 3 and 4 survive, 1 and 2 pruned.
	list := st.List("j00000003")
	if len(list) != 2 || list[0] != FileName("j00000003", 4) || list[1] != FileName("j00000003", 3) {
		t.Fatalf("retention: got %v", list)
	}
	snap, err := st.Load(names[3], digests[3])
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if snap.Epoch != 4 {
		t.Fatalf("loaded epoch %d, want 4", snap.Epoch)
	}
	// A wrong journal digest must refuse before decode.
	if _, err := st.Load(names[3], "0123456789abcdef"); err == nil {
		t.Fatal("load with wrong digest succeeded")
	}
	stats := st.Stats()
	if stats.Writes != 4 || stats.Pruned != 2 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestStoreQuarantineAndSweep(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(hostfs.OS(), dir, 3, t.Logf)
	name, _, err := st.Write(testSnap("j00000004", 1, 1, 64, 0x11))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	st.Quarantine(name)
	if got := st.List("j00000004"); len(got) != 0 {
		t.Fatalf("quarantined file still listed: %v", got)
	}
	if _, err := os.Stat(filepath.Join(dir, name+".bad")); err != nil {
		t.Fatalf("no .bad file after quarantine: %v", err)
	}
	// A stranded tmp from a crashed publish.
	if err := os.WriteFile(filepath.Join(dir, "j00000004.e000009.ckpt.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	st.SweepJob("j00000004")
	left, _ := os.ReadDir(dir)
	for _, e := range left {
		if isCkptFile(e.Name()) {
			t.Fatalf("sweep left %s behind", e.Name())
		}
	}
}

func TestStoreSweepExceptKeepsOnlyReferenced(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(hostfs.OS(), dir, 3, t.Logf)
	keepName, _, err := st.Write(testSnap("j00000005", 2, 1, 64, 0x22))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	dropName, _, err := st.Write(testSnap("j00000006", 1, 1, 64, 0x33))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "j00000007.e000001.ckpt.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	st.SweepExcept(map[string]bool{keepName: true})
	if got := st.List("j00000005"); len(got) != 1 || got[0] != keepName {
		t.Fatalf("kept file missing: %v", got)
	}
	if got := st.List("j00000006"); len(got) != 0 {
		t.Fatalf("unreferenced %s survived sweep", dropName)
	}
	left, _ := os.ReadDir(dir)
	for _, e := range left {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("sweep left tmp %s behind", e.Name())
		}
	}
}

func TestStoreWriteFailureLeavesNothingPublished(t *testing.T) {
	dir := t.TempDir()
	ffs := hostfs.NewFault(hostfs.OS(), hostfs.FaultConfig{Seed: 1})
	st := NewStore(ffs, dir, 3, t.Logf)
	ffs.SetBroken(hostfs.BrokenEIO)
	if _, _, err := st.Write(testSnap("j00000008", 1, 1, 64, 0x44)); err == nil {
		t.Fatal("write on a broken disk succeeded")
	}
	ffs.Heal()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".ckpt") {
			t.Fatalf("failed write published %s", e.Name())
		}
	}
	if st.Stats().WriteFailures != 1 {
		t.Fatalf("stats: %+v", st.Stats())
	}
}

// forge builds a checkpoint file around an arbitrary payload, with both
// CRCs valid, so each payload refusal is tested on its own.
func forge(t *testing.T, version int, meta Meta, payload []byte) []byte {
	t.Helper()
	meta.Version = version
	meta.PayloadCRC = crc32.ChecksumIEEE(payload)
	hdr, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	buf := fmt.Appendf(nil, "%s%d %08x ", magic, version, crc32.ChecksumIEEE(hdr))
	buf = append(append(buf, hdr...), '\n')
	return append(buf, payload...)
}

// pageList renders one PE's page list from (index, bytes) pairs.
func pageList(entries ...any) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(entries)/2))
	for i := 0; i < len(entries); i += 2 {
		out = binary.LittleEndian.AppendUint32(out, entries[i].(uint32))
		out = append(out, entries[i+1].([]byte)...)
	}
	return out
}

func TestSparseRoundTripWithPartialLastPage(t *testing.T) {
	const memLen = 3*pageSize + 96
	s := testSnap("j00000009", 2, 3, memLen, 0)
	for _, m := range s.Mem {
		clear(m)
	}
	s.Mem[1][5] = 1
	s.Mem[1][memLen-1] = 2 // partial last page
	s.Mem[2][2*pageSize+pageSize/2] = 3
	data, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	hdr := bytes.IndexByte(data, '\n') + 1
	if want := hdr + 4*3 + (4 + pageSize) + (4 + 96) + (4 + pageSize); len(data) != want {
		t.Fatalf("encoded %d bytes, want %d (header, 3 counts, 3 non-zero pages)", len(data), want)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for pe := range s.Mem {
		if !bytes.Equal(got.Mem[pe], s.Mem[pe]) {
			t.Fatalf("pe%d image differs after the round trip", pe)
		}
	}
}

// A job-sized snapshot costs its touched pages, not its machine size.
func TestJobSizedSnapshotEncodesTouchedPages(t *testing.T) {
	const pes, memLen, k = 8, 2 << 20, 48
	s := testSnap("j00000010", 1, pes, memLen, 0)
	for _, m := range s.Mem {
		clear(m)
	}
	for i := 0; i < k; i++ {
		s.Mem[i%pes][(i*37%(memLen/pageSize))*pageSize+i] = byte(i + 1)
	}
	data, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	hdr := bytes.IndexByte(data, '\n') + 1
	if limit := hdr + 4*pes + k*(4+pageSize); len(data) > limit {
		t.Fatalf("encoded %d bytes for %d touched pages, limit %d", len(data), k, limit)
	}
	if _, err := Decode(data); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

func TestDecodeRefusesMalformedPageLists(t *testing.T) {
	meta := testSnap("j00000011", 1, 1, 2*pageSize+96, 0).Meta
	page := bytes.Repeat([]byte{7}, pageSize)
	cases := []struct {
		name, want string
		payload    []byte
	}{
		{"torn count", "count torn", []byte{1, 0}},
		{"torn entry", "torn", pageList(uint32(0), page)[:4+4+100]},
		{"torn entry index", "entry 1 torn", append(pageList(uint32(0), page, uint32(1), page)[:4+4+pageSize], 1)},
		{"out-of-range index", "out of order or range", pageList(uint32(3), page)},
		{"non-increasing index", "out of order or range", pageList(uint32(1), page, uint32(1), page)},
		{"decreasing index", "out of order or range", pageList(uint32(1), page, uint32(0), page)},
		{"too many pages", "lists 4 pages", pageList(uint32(0), page, uint32(1), page, uint32(2), page[:96], uint32(3), page)},
		{"trailing bytes", "trailing", append(pageList(uint32(2), page[:96]), 0)},
	}
	for _, c := range cases {
		_, err := Decode(forge(t, Version, meta, c.payload))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want one mentioning %q", c.name, err, c.want)
		}
	}
	if _, err := Decode(forge(t, Version, meta, pageList(uint32(0), page, uint32(2), page[:96]))); err != nil {
		t.Errorf("well-formed forged file refused: %v", err)
	}
}

// A version-1 file (dense images) is refused as an unsupported version,
// which the resume ladder quarantines.
func TestDecodeRefusesVersion1(t *testing.T) {
	s := testSnap("j00000012", 1, 2, 96, 0x5A)
	dense := append(append([]byte(nil), s.Mem[0]...), s.Mem[1]...)
	_, err := Decode(forge(t, 1, s.Meta, dense))
	if err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("T3DCKPT1 file: err %v, want an unsupported-version refusal", err)
	}
}
