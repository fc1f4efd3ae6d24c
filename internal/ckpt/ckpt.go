// Package ckpt is the durable checkpoint layer: it serializes the
// barrier-aligned machine snapshots splitc.Recovery already takes in
// memory into versioned, checksummed files, published atomically
// through the hostfs VFS so every host-disk failure mode the journal is
// hardened against (EIO, ENOSPC, short/torn writes, crash mid-rename)
// applies to checkpoints too.
//
// On-disk format (version 2), one file per committed checkpoint:
//
//	T3DCKPT2 <8-hex CRC32 of header JSON> <header JSON>\n
//	<payload: one page list per PE, in PE order>
//
// A PE's page list is a little-endian uint32 page count followed by one
// entry per non-zero 4 KB page of its DRAM image: a little-endian
// uint32 page index, then the page bytes. Indices strictly increase;
// the last page of an image whose length is not a page multiple is
// stored at its partial length. All-zero pages are omitted, so a file
// costs what the job touched, not what the machine could hold, and
// Decode rebuilds the dense MemLen-byte images.
//
// The header carries the job identity, the epoch the image resumes at,
// the cumulative simulated cycles the image accounts for, the per-PE
// shell registers and runtime heap cursors, and a CRC32 of the payload.
// The header line is self-checking (its own CRC) and the payload is
// checked against the header's PayloadCRC, so a torn or bit-flipped
// file is a detected refusal, never a silently wrong resume. On top of
// both CRCs, the journal's checkpointed record stores an FNV-1a digest
// of the whole file, binding journal entry to file content: a file that
// was swapped, truncated, or regenerated does not match its record.
// Files of another version, version 1's dense images included, are
// refused; the resume ladder quarantines them and replays.
//
// Publication is tmp + write + fsync + rename: a crash leaves either
// the previous checkpoint set plus a garbage .tmp (swept at startup) or
// the new file whole. Retention keeps the newest K checkpoints per job;
// a file that fails validation at resume is quarantined (renamed .bad)
// so recovery falls back to the next-older checkpoint and, with none
// left, to full replay.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/hostfs"
)

// Version is the checkpoint format version, baked into the magic token
// ("T3DCKPT2"). Readers refuse other versions rather than guess.
const Version = 2

// pageSize is the payload's page granularity; it matches the DRAM's
// host pages, so every page a job touched costs one entry.
const pageSize = 4096

const magic = "T3DCKPT"

// Format bounds: a header asking for more PEs or memory than any
// machine this repo can build is corruption, not configuration.
const (
	maxPEs    = 4096
	maxMemLen = 1 << 31
)

// Meta is the checkpoint header. JSON tags keep the on-disk form
// explicit and stable; the struct is small (per-PE registers and heap
// cursors), the bulk payload lives outside the JSON.
type Meta struct {
	Version    int         `json:"v"`
	JobID      string      `json:"job_id"`
	Epoch      int         `json:"epoch"`  // epoch a resume of this image starts at
	Cycles     int64       `json:"cycles"` // cumulative simulated cycles the image accounts for
	PEs        int         `json:"pes"`
	MemLen     int64       `json:"mem_len"` // DRAM image bytes per PE
	Heap       []int64     `json:"heap"`    // per-PE runtime heap cursor
	Regs       [][3]uint64 `json:"regs"`    // per-PE shell registers: FI0, FI1, swap
	PayloadCRC uint32      `json:"payload_crc"`
}

// Snapshot is one decoded checkpoint: the header plus the per-PE DRAM
// images, each MemLen bytes.
type Snapshot struct {
	Meta
	Mem [][]byte
}

// Encode renders a snapshot to its on-disk bytes, keeping only the
// non-zero pages of each image. The caller's Meta Version and
// PayloadCRC are overwritten with the computed values.
func Encode(s *Snapshot) ([]byte, error) {
	if len(s.Mem) != s.PEs || len(s.Heap) != s.PEs || len(s.Regs) != s.PEs {
		return nil, fmt.Errorf("ckpt: encode: %d PEs but %d mem/%d heap/%d regs",
			s.PEs, len(s.Mem), len(s.Heap), len(s.Regs))
	}
	var zero [pageSize]byte
	var payload []byte
	for pe, m := range s.Mem {
		if int64(len(m)) != s.MemLen {
			return nil, fmt.Errorf("ckpt: encode: pe%d image %d bytes, mem_len %d", pe, len(m), s.MemLen)
		}
		countAt := len(payload)
		payload = binary.LittleEndian.AppendUint32(payload, 0)
		var count uint32
		for i := 0; i < len(m); i += pageSize {
			pg := m[i:min(i+pageSize, len(m))]
			if bytes.Equal(pg, zero[:len(pg)]) {
				continue
			}
			payload = binary.LittleEndian.AppendUint32(payload, uint32(i/pageSize))
			payload = append(payload, pg...)
			count++
		}
		binary.LittleEndian.PutUint32(payload[countAt:], count)
	}
	meta := s.Meta
	meta.Version = Version
	meta.PayloadCRC = crc32.ChecksumIEEE(payload)
	hdr, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("ckpt: encode header: %w", err)
	}
	buf := make([]byte, 0, len(hdr)+len(payload)+24)
	buf = fmt.Appendf(buf, "%s%d %08x ", magic, Version, crc32.ChecksumIEEE(hdr))
	buf = append(buf, hdr...)
	buf = append(buf, '\n')
	return append(buf, payload...), nil
}

// ParseHeader validates and decodes the header line, returning the
// metadata and the byte offset where the payload begins. Every refusal
// is explicit: a resume path must never act on a header it cannot
// prove whole.
func ParseHeader(data []byte) (Meta, int, error) {
	var m Meta
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return m, 0, fmt.Errorf("ckpt: header: no newline (torn or not a checkpoint)")
	}
	line := data[:nl]
	tok := bytes.SplitN(line, []byte(" "), 3)
	if len(tok) != 3 {
		return m, 0, fmt.Errorf("ckpt: header: want 3 fields, got %d", len(tok))
	}
	if !bytes.HasPrefix(tok[0], []byte(magic)) {
		return m, 0, fmt.Errorf("ckpt: header: bad magic %q", clip(tok[0]))
	}
	if string(tok[0]) != fmt.Sprintf("%s%d", magic, Version) {
		return m, 0, fmt.Errorf("ckpt: header: unsupported version token %q (want %s%d)", clip(tok[0]), magic, Version)
	}
	if len(tok[1]) != 8 {
		return m, 0, fmt.Errorf("ckpt: header: malformed checksum %q", clip(tok[1]))
	}
	var sum uint32
	if _, err := fmt.Sscanf(string(tok[1]), "%08x", &sum); err != nil {
		return m, 0, fmt.Errorf("ckpt: header: malformed checksum %q: %w", clip(tok[1]), err)
	}
	if got := crc32.ChecksumIEEE(tok[2]); got != sum {
		return m, 0, fmt.Errorf("ckpt: header: checksum mismatch (header says %08x, payload is %08x)", sum, got)
	}
	if err := json.Unmarshal(tok[2], &m); err != nil {
		return m, 0, fmt.Errorf("ckpt: header: %w", err)
	}
	if m.Version != Version {
		return m, 0, fmt.Errorf("ckpt: header: version %d inside a %s%d file", m.Version, magic, Version)
	}
	if m.PEs < 1 || m.PEs > maxPEs {
		return m, 0, fmt.Errorf("ckpt: header: pes %d out of range [1,%d]", m.PEs, maxPEs)
	}
	if m.MemLen < 0 || m.MemLen > maxMemLen {
		return m, 0, fmt.Errorf("ckpt: header: mem_len %d out of range [0,%d]", m.MemLen, maxMemLen)
	}
	if len(m.Heap) != m.PEs || len(m.Regs) != m.PEs {
		return m, 0, fmt.Errorf("ckpt: header: %d PEs but %d heap/%d regs entries", m.PEs, len(m.Heap), len(m.Regs))
	}
	if m.Epoch < 0 {
		return m, 0, fmt.Errorf("ckpt: header: negative epoch %d", m.Epoch)
	}
	return m, nl + 1, nil
}

// Decode parses a whole checkpoint file: header and payload CRC
// validated, then every page list, before the dense images are trusted.
// A torn entry, an out-of-range or non-increasing page index, and bytes
// past the last PE's list are each refused.
func Decode(data []byte) (*Snapshot, error) {
	meta, off, err := ParseHeader(data)
	if err != nil {
		return nil, err
	}
	p := data[off:]
	if got := crc32.ChecksumIEEE(p); got != meta.PayloadCRC {
		return nil, fmt.Errorf("ckpt: payload: checksum mismatch (header says %08x, payload is %08x)", meta.PayloadCRC, got)
	}
	memLen := int(meta.MemLen)
	pages := (memLen + pageSize - 1) / pageSize
	s := &Snapshot{Meta: meta, Mem: make([][]byte, meta.PEs)}
	for pe := range s.Mem {
		if len(p) < 4 {
			return nil, fmt.Errorf("ckpt: payload: pe%d page count torn", pe)
		}
		count := int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if count > pages {
			return nil, fmt.Errorf("ckpt: payload: pe%d lists %d pages, image has %d", pe, count, pages)
		}
		img := make([]byte, memLen)
		next := 0
		for e := 0; e < count; e++ {
			if len(p) < 4 {
				return nil, fmt.Errorf("ckpt: payload: pe%d entry %d torn", pe, e)
			}
			idx := int(binary.LittleEndian.Uint32(p))
			if idx < next || idx >= pages {
				return nil, fmt.Errorf("ckpt: payload: pe%d page index %d out of order or range (want [%d,%d))", pe, idx, next, pages)
			}
			pg := img[idx*pageSize : min((idx+1)*pageSize, memLen)]
			if len(p)-4 < len(pg) {
				return nil, fmt.Errorf("ckpt: payload: pe%d page %d torn", pe, idx)
			}
			p = p[4+copy(pg, p[4:]):]
			next = idx + 1
		}
		s.Mem[pe] = img
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("ckpt: payload: %d trailing bytes after the last page list", len(p))
	}
	return s, nil
}

func clip(b []byte) string {
	const max = 24
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}

// Digest is the whole-file FNV-1a (64-bit) the journal's checkpointed
// record stores — the binding between a journal entry and the exact
// bytes it vouches for.
func Digest(data []byte) string {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime
	}
	return fmt.Sprintf("%016x", h)
}

// FileName is the published name of a checkpoint: job ID and epoch,
// zero-padded so lexical order is epoch order within a job. Names are
// flat (no subdirectories) because the crash harness replays them into
// a flat directory.
func FileName(jobID string, epoch int) string {
	return fmt.Sprintf("%s.e%06d.ckpt", jobID, epoch)
}

// isCkptFile matches every file this package may have created:
// published checkpoints, unpublished temporaries, quarantined bads.
func isCkptFile(name string) bool {
	return strings.HasSuffix(name, ".ckpt") ||
		strings.HasSuffix(name, ".ckpt.tmp") ||
		strings.HasSuffix(name, ".ckpt.bad")
}

// StoreStats is the store's operational counter block, served on
// /statusz. Counters cover this process's lifetime; Bytes is the sum
// of checkpoint bytes published (not the live directory size, which
// the minimal VFS cannot stat).
type StoreStats struct {
	Writes          int64 `json:"writes"`
	WriteFailures   int64 `json:"write_failures"`
	Bytes           int64 `json:"bytes"`
	Pruned          int64 `json:"pruned"`
	Quarantined     int64 `json:"quarantined"`
	Swept           int64 `json:"swept"`
	LastWriteUnixMS int64 `json:"last_write_unix_ms,omitempty"`
}

// Store manages one directory of checkpoint files through a hostfs.FS.
// The directory must exist (the caller creates it; the VFS has no
// mkdir). All methods are safe for concurrent use.
type Store struct {
	fs     hostfs.FS
	dir    string
	retain int
	logf   func(string, ...any)

	mu    sync.Mutex
	stats StoreStats
}

// NewStore builds a store over dir. retain <= 0 defaults to 3; fsys nil
// defaults to the real filesystem.
func NewStore(fsys hostfs.FS, dir string, retain int, logf func(string, ...any)) *Store {
	if fsys == nil {
		fsys = hostfs.OS()
	}
	if retain <= 0 {
		retain = 3
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Store{fs: fsys, dir: dir, retain: retain, logf: logf}
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// Write publishes one checkpoint atomically: encode, write + fsync to a
// .tmp, rename into place, then prune the job past the retention bound.
// It returns the published file name (relative to the store directory —
// what the journal record carries) and the whole-file digest. On any
// failure the .tmp is removed best-effort and nothing is published.
func (st *Store) Write(s *Snapshot) (name, digest string, err error) {
	data, err := Encode(s)
	if err != nil {
		return "", "", err
	}
	name = FileName(s.JobID, s.Epoch)
	tmp := filepath.Join(st.dir, name+".tmp")
	if err := hostfs.WriteFile(st.fs, tmp, data, 0o644); err != nil {
		if rerr := st.fs.Remove(tmp); rerr != nil {
			st.logf("ckpt: tmp cleanup %s: %v", tmp, rerr)
		}
		st.fail()
		return "", "", fmt.Errorf("ckpt: write %s: %w", name, err)
	}
	if err := st.fs.Rename(tmp, filepath.Join(st.dir, name)); err != nil {
		if rerr := st.fs.Remove(tmp); rerr != nil {
			st.logf("ckpt: tmp cleanup %s: %v", tmp, rerr)
		}
		st.fail()
		return "", "", fmt.Errorf("ckpt: publish %s: %w", name, err)
	}
	st.mu.Lock()
	st.stats.Writes++
	st.stats.Bytes += int64(len(data))
	st.stats.LastWriteUnixMS = time.Now().UnixMilli()
	st.mu.Unlock()
	st.pruneJob(s.JobID)
	return name, Digest(data), nil
}

func (st *Store) fail() {
	st.mu.Lock()
	st.stats.WriteFailures++
	st.mu.Unlock()
}

// pruneJob removes the job's published checkpoints beyond the newest
// retain. Best-effort: a failed remove only costs disk space.
func (st *Store) pruneJob(jobID string) {
	names, err := st.fs.ReadDir(st.dir)
	if err != nil {
		st.logf("ckpt: prune readdir: %v", err)
		return
	}
	var epochs []int
	prefix := jobID + ".e"
	for _, n := range names {
		var e int
		if strings.HasPrefix(n, prefix) && n == FileName(jobID, atoiSuffix(n, prefix, &e)) {
			epochs = append(epochs, e)
		}
	}
	if len(epochs) <= st.retain {
		return
	}
	sort.Sort(sort.Reverse(sort.IntSlice(epochs)))
	for _, e := range epochs[st.retain:] {
		p := filepath.Join(st.dir, FileName(jobID, e))
		if err := st.fs.Remove(p); err != nil {
			st.logf("ckpt: prune %s: %v", p, err)
			continue
		}
		st.mu.Lock()
		st.stats.Pruned++
		st.mu.Unlock()
	}
}

// atoiSuffix parses the epoch out of "<prefix><epoch>.ckpt", storing it
// in *e and returning it (so the caller can round-trip through FileName
// to reject malformed names).
func atoiSuffix(name, prefix string, e *int) int {
	rest := strings.TrimPrefix(name, prefix)
	rest = strings.TrimSuffix(rest, ".ckpt")
	v := 0
	for i := 0; i < len(rest); i++ {
		c := rest[i]
		if c < '0' || c > '9' {
			return -1
		}
		v = v*10 + int(c-'0')
	}
	*e = v
	return v
}

// Load reads and fully validates one published checkpoint. A non-empty
// wantDigest must match the whole-file digest — the journal-binding
// check — before the header or payload are even parsed.
func (st *Store) Load(name, wantDigest string) (*Snapshot, error) {
	data, err := hostfs.ReadFile(st.fs, filepath.Join(st.dir, name))
	if err != nil {
		return nil, fmt.Errorf("ckpt: load %s: %w", name, err)
	}
	if wantDigest != "" {
		if got := Digest(data); got != wantDigest {
			return nil, fmt.Errorf("ckpt: load %s: file digest %s, journal says %s", name, got, wantDigest)
		}
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("ckpt: load %s: %w", name, err)
	}
	return s, nil
}

// Quarantine renames a checkpoint that failed validation to .bad so the
// fallback ladder never retries it and a human can autopsy it. The
// rename failing is tolerable — Load will keep refusing the file.
func (st *Store) Quarantine(name string) {
	from := filepath.Join(st.dir, name)
	if err := st.fs.Rename(from, from+".bad"); err != nil {
		st.logf("ckpt: quarantine %s: %v", name, err)
		return
	}
	st.mu.Lock()
	st.stats.Quarantined++
	st.mu.Unlock()
	st.logf("ckpt: quarantined %s", name)
}

// Remove deletes one published checkpoint — the unpublish path when the
// journal binding for a just-written file cannot be made durable.
func (st *Store) Remove(name string) error {
	return st.fs.Remove(filepath.Join(st.dir, name))
}

// SweepJob removes every checkpoint artifact (published, tmp, bad) of a
// finished job: its done record is durable, so no resume will ever
// want them.
func (st *Store) SweepJob(jobID string) {
	st.sweep(func(name string) bool {
		return strings.HasPrefix(name, jobID+".e")
	})
}

// SweepExcept removes every checkpoint artifact whose published name is
// not in keep — the startup GC. Temporaries and quarantined files are
// never in keep, so a crash mid-publish or mid-quarantine leaks
// nothing past the next start.
func (st *Store) SweepExcept(keep map[string]bool) {
	st.sweep(func(name string) bool {
		return !keep[name]
	})
}

func (st *Store) sweep(doomed func(string) bool) {
	names, err := st.fs.ReadDir(st.dir)
	if err != nil {
		st.logf("ckpt: sweep readdir: %v", err)
		return
	}
	for _, n := range names {
		if !isCkptFile(n) || !doomed(n) {
			continue
		}
		if err := st.fs.Remove(filepath.Join(st.dir, n)); err != nil {
			st.logf("ckpt: sweep %s: %v", n, err)
			continue
		}
		st.mu.Lock()
		st.stats.Swept++
		st.mu.Unlock()
	}
}

// List returns the published checkpoint names for a job, newest epoch
// first — the resume candidate order.
func (st *Store) List(jobID string) []string {
	names, err := st.fs.ReadDir(st.dir)
	if err != nil {
		// No candidates is a lawful answer (resume falls back to full
		// replay), but an unreadable directory deserves a line.
		st.logf("ckpt: list %s: %v", st.dir, err)
		return nil
	}
	var epochs []int
	prefix := jobID + ".e"
	for _, n := range names {
		var e int
		if strings.HasPrefix(n, prefix) && n == FileName(jobID, atoiSuffix(n, prefix, &e)) {
			epochs = append(epochs, e)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(epochs)))
	out := make([]string, len(epochs))
	for i, e := range epochs {
		out[i] = FileName(jobID, e)
	}
	return out
}

// Stats returns the counter snapshot.
func (st *Store) Stats() StoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// MkdirAll creates the store directory on the real filesystem — the one
// concession to the VFS having no mkdir. Callers running over an
// injected FS must pre-create the directory themselves (tests use
// t.TempDir()).
func MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }
