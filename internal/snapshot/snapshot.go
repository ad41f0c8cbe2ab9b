// Package snapshot persists the framework's fully compiled artifacts —
// the flattened homoglyph index (UC ∪ SimChar union, canonical targets,
// source masks) with the view's fold rows, the component databases
// needed to answer accounting queries, and optionally a detector's
// reference list — as one versioned, checksummed binary blob.
//
// The paper's build pipeline (font rasterization, the Section 3.3
// pairwise Δ scan, UC parsing, index compilation) costs seconds per
// process; a production deployment that scales horizontally or runs as a
// short-lived CLI pays that on every cold start. A snapshot collapses it
// into one file read: every section is a length-prefixed bulk array, so
// loading is a checksum pass plus slice decodes — no font, no Δ scan,
// and no allocation per entry. The UC database takes the decoded target
// array as its rune arena, the SimChar partner lists are rows of one
// array and the homoglyph index keeps its decoded rows; the only
// per-entry work left is filling the UC lookup maps.
// Detection results are byte-for-byte identical to a fresh build
// (property-tested), and the format is forward-versioned so future
// index layouts can bump Version without silently misreading old files.
//
// Every artifact this package persists — snapshots here, seen-sets,
// watch checkpoints and job manifests elsewhere — shares one container,
// the envelope (see envelope.go): 8-byte magic, version u32, payload,
// and a CRC-32 (IEEE) over everything before it. A snapshot's payload
// (all integers little-endian) is
//
//	flags u32 | sections...
//
// where sections appear in fixed order, gated by flag bits: UC entries,
// SimChar pairs, the database (the homoglyph index, then the view's
// fold rows), and the optional detector.
//
// The database section ends with what depends on the database alone and
// is costly to recompute, the fold rows (union-find representatives and
// many-to-one expansions), so no load runs the union-find: a detector
// compiled over a loaded database, from a list or from the file's own
// detector section, only reads them. The detector section is the
// reference list; its index is compiled from the list over the loaded
// rows, the same compile NewDetector runs. On the fast font the fold
// rows take 17,952 bytes, so a database-only file is 253,629 bytes
// (235,677 without them), and 10k references add 130,786 bytes.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/confusables"
	"repro/internal/core"
	"repro/internal/homoglyph"
	"repro/internal/simchar"
)

// Magic identifies a shamfinder snapshot file.
const Magic = "SHAMSNAP"

// Version is the current format version. Readers reject anything else:
// a compiled artifact silently misread as an older layout would corrupt
// detection, the one failure mode a checksum cannot catch.
//
// v2 extended the detector section with the TR39 skeleton index (rep
// map, many-to-one sequences, skeleton→refs id lists); v3 drops the
// per-(length, position) posting lists, since the detector now derives
// every backend from the skeleton index; v4 drops the skeleton→refs
// key lists, since a load compiles them from the reference list, and
// keeps the detector section to the references and the per-rune rows;
// v5 moves the per-rune fold rows to the end of the database section,
// since they are the database view's, so a database-only file carries
// them too and the detector section is the reference list alone.
// Older files must be recompiled.
const Version = 5

// Section flag bits.
const (
	flagUC uint32 = 1 << iota
	flagSimChar
	flagDetector
)

// Errors returned by Unmarshal; all are also wrapped with context.
var (
	ErrMagic     = errors.New("snapshot: not a shamfinder snapshot")
	ErrVersion   = errors.New("snapshot: unsupported format version")
	ErrChecksum  = errors.New("snapshot: checksum mismatch")
	ErrTruncated = errors.New("snapshot: truncated")
)

// Marshal serializes the database and (when non-nil) a detector built
// over it.
func Marshal(db *homoglyph.DB, det *core.Detector) []byte {
	var flags uint32
	if db.UC() != nil {
		flags |= flagUC
	}
	if db.SimChar() != nil {
		flags |= flagSimChar
	}
	if det != nil {
		flags |= flagDetector
	}
	e := &enc{}
	e.u32(flags)
	if uc := db.UC(); uc != nil {
		writeUC(e, uc)
	}
	if sim := db.SimChar(); sim != nil {
		writeSimChar(e, sim)
	}
	writeIndex(e, db.Snapshot())
	if det != nil {
		writeDetector(e, det.Snapshot())
	}
	return SealEnvelope(Magic, Version, e.buf)
}

// Unmarshal reconstructs the database and the embedded detector (nil if
// none was serialized). It opens the envelope — magic, version and
// checksum — before touching any section, and validates every slice
// header against the remaining byte count, so corrupt or truncated
// input fails cleanly instead of panicking or over-allocating.
func Unmarshal(data []byte) (*homoglyph.DB, *core.Detector, error) {
	return unmarshal(data, true)
}

// unmarshal is Unmarshal that rebuilds the embedded detector only with
// withDetector set. Without it the detector section is still read, so
// its framing and the trailing bytes are checked, but the detector is
// neither rebuilt nor validated against the database, and the result
// is nil.
func unmarshal(data []byte, withDetector bool) (*homoglyph.DB, *core.Detector, error) {
	payload, err := OpenEnvelope(data, Magic, Version)
	if err != nil {
		return nil, nil, err
	}
	d := &dec{data: payload}
	flags := d.u32()
	var uc *confusables.DB
	var sim *simchar.DB
	if flags&flagUC != 0 {
		uc = readUC(d)
	}
	if flags&flagSimChar != 0 {
		sim = readSimChar(d)
	}
	idx := readIndex(d)
	var detSnap *core.Snapshot
	if flags&flagDetector != 0 {
		detSnap = readDetector(d)
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	if d.off != len(d.data) {
		return nil, nil, fmt.Errorf("snapshot: %d trailing bytes after last section", len(d.data)-d.off)
	}

	db, err := homoglyph.FromSnapshot(idx, uc, sim)
	if err != nil {
		return nil, nil, err
	}
	var det *core.Detector
	if detSnap != nil && withDetector {
		det, err = core.NewDetectorFromSnapshot(db, detSnap)
		if err != nil {
			return nil, nil, err
		}
	}
	return db, det, nil
}

// WriteFile writes the snapshot to path atomically: the bytes land in a
// temp file in the same directory and are renamed into place, so a
// crash mid-write never destroys an existing artifact and a worker
// fleet cold-starting from the path never observes a truncated file.
func WriteFile(path string, db *homoglyph.DB, det *core.Detector) error {
	return WriteFileAtomic(path, Marshal(db, det))
}

// WriteFileAtomic writes data to path through a same-directory temp
// file, fsync, and rename — the durability discipline every artifact
// in the SHAMSNAP family (snapshots, seen-sets, watch checkpoints)
// shares: a reader never observes a half-written file, and a crash
// mid-write leaves the previous artifact intact.
//
//shamlint:allow durable-write this IS the blessed helper — temp + fsync + rename is the atomic publish itself
//shamlint:allow close-check the unchecked Close sits on the error-cleanup path; the write error is already being returned
func WriteFileAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// CompleteLineEnd returns the end offset of the last newline-terminated
// line in r's bytes [floor, limit), or floor when there is none — the
// torn-tail trim every append-only journal (the zone watcher's deltas,
// a survey job's record log) runs before it trusts its tail, since a
// crash mid-append can leave a partial last line. A read error is
// returned as is: trimming on a failed read would destroy the journal.
func CompleteLineEnd(r io.ReaderAt, floor, limit int64) (int64, error) {
	const chunk = 64 << 10
	for end := limit; end > floor; {
		start := max(end-chunk, floor)
		buf := make([]byte, end-start)
		if _, err := r.ReadAt(buf, start); err != nil {
			return 0, err
		}
		if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
			return start + int64(i) + 1, nil
		}
		end = start
	}
	return floor, nil
}

// ReadFile loads a snapshot from path — the one-file cold start.
func ReadFile(path string) (*homoglyph.DB, *core.Detector, error) {
	return Load(path, true)
}

// Load is ReadFile for a caller that says whether it wants the
// embedded detector. Without withDetector the detector is not rebuilt
// and the result is nil, so a caller that compiles its own detector,
// or needs none, skips the rebuild; every other check still runs.
func Load(path string, withDetector bool) (*homoglyph.DB, *core.Detector, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return unmarshal(data, withDetector)
}

// --- section writers ---

func writeUC(e *enc, uc *confusables.DB) {
	entries := uc.Entries()
	e.u32(uint32(len(entries)))
	for _, en := range entries {
		e.i32(int32(en.Source))
	}
	for _, en := range entries {
		e.i32(int32(len(en.Target)))
	}
	for _, en := range entries {
		for _, t := range en.Target {
			e.i32(int32(t))
		}
	}
	comments := make([]string, len(entries))
	for i, en := range entries {
		comments[i] = en.Comment
	}
	e.strings(comments)
}

func writeSimChar(e *enc, sim *simchar.DB) {
	pairs := sim.Pairs()
	e.u32(uint32(len(pairs)))
	for _, p := range pairs {
		e.i32(int32(p.A))
		e.i32(int32(p.B))
		e.i32(int32(p.Delta))
	}
}

// writeIndex writes the database section: the index rows, then the
// view's fold rows.
func writeIndex(e *enc, s *homoglyph.Snapshot) {
	e.u8(byte(s.Use))
	e.runes(s.Runes)
	e.i32s(s.Counts)
	e.runes(s.UCSkel)
	e.runes(s.SimASCII)
	e.runes(s.SimLow)
	e.runes(s.Partners)
	masks := make([]byte, len(s.Masks))
	for i, m := range s.Masks {
		masks[i] = byte(m)
	}
	e.bytes(masks)
	writeRows(e, s.Rows)
}

func writeRows(e *enc, x *homoglyph.FoldRows) {
	e.runes(x.RepRunes)
	e.runes(x.Reps)
	e.runes(x.SeqRunes)
	e.i32s(x.SeqLens)
	e.runes(x.Seqs)
}

func writeDetector(e *enc, s *core.Snapshot) {
	e.strings(s.Refs)
}

// --- section readers ---

func readUC(d *dec) *confusables.DB {
	n := d.count(4)
	sources := d.runes(n)
	targetLens := d.i32s(n)
	total := 0
	for _, l := range targetLens {
		if l < 0 {
			d.fail("negative UC target length")
			return nil
		}
		total += int(l)
	}
	targets := d.runes(d.checkCount(total, 4))
	comments := d.strings()
	if d.err != nil {
		return nil
	}
	if len(comments) != n {
		d.fail("UC comment table length mismatch")
		return nil
	}
	uc, err := confusables.FromRows(sources, targetLens, targets, comments)
	if err != nil {
		d.fail(err.Error())
	}
	return uc
}

func readSimChar(d *dec) *simchar.DB {
	n := d.count(12)
	triples := d.i32s(d.checkCount(3*n, 4))
	if d.err != nil {
		return nil
	}
	pairs := make([]simchar.Pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = simchar.Pair{
			A:     rune(triples[3*i]),
			B:     rune(triples[3*i+1]),
			Delta: int(triples[3*i+2]),
		}
	}
	return simchar.FromPairs(pairs)
}

func readIndex(d *dec) *homoglyph.Snapshot {
	s := &homoglyph.Snapshot{}
	s.Use = homoglyph.Source(d.u8())
	s.Runes = d.runes(d.count(4))
	s.Counts = d.i32s(d.count(4))
	s.UCSkel = d.runes(d.count(4))
	s.SimASCII = d.runes(d.count(4))
	s.SimLow = d.runes(d.count(4))
	s.Partners = d.runes(d.count(4))
	masks := d.bytes(d.count(1))
	s.Rows = readRows(d)
	if d.err != nil {
		return s
	}
	s.Masks = make([]homoglyph.Source, len(masks))
	for i, m := range masks {
		s.Masks[i] = homoglyph.Source(m)
	}
	return s
}

func readRows(d *dec) *homoglyph.FoldRows {
	x := &homoglyph.FoldRows{}
	x.RepRunes = d.runes(d.count(4))
	x.Reps = d.runes(d.count(4))
	x.SeqRunes = d.runes(d.count(4))
	x.SeqLens = d.i32s(d.count(4))
	x.Seqs = d.runes(d.count(4))
	return x
}

func readDetector(d *dec) *core.Snapshot {
	return &core.Snapshot{Refs: d.strings()}
}

// --- primitive codec ---

// enc accumulates the output buffer; every write appends.
type enc struct{ buf []byte }

func (e *enc) raw(b []byte) { e.buf = append(e.buf, b...) }

func (e *enc) u8(v byte) { e.buf = append(e.buf, v) }

func (e *enc) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

func (e *enc) i32(v int32) { e.u32(uint32(v)) }

func (e *enc) i32s(s []int32) {
	e.u32(uint32(len(s)))
	for _, v := range s {
		e.u32(uint32(v))
	}
}

func (e *enc) runes(s []rune) {
	e.u32(uint32(len(s)))
	for _, v := range s {
		e.u32(uint32(v))
	}
}

func (e *enc) bytes(s []byte) {
	e.u32(uint32(len(s)))
	e.raw(s)
}

// strings writes a table as lengths plus one concatenated blob, so the
// reader can materialize all values out of a single allocation.
func (e *enc) strings(s []string) {
	e.u32(uint32(len(s)))
	for _, v := range s {
		e.u32(uint32(len(v)))
	}
	for _, v := range s {
		e.raw([]byte(v))
	}
}

// dec is a sticky-error cursor over the payload. Count reads validate
// the claimed element count against the bytes actually remaining before
// any allocation, so a corrupt header can't request a huge buffer.
type dec struct {
	data []byte
	off  int
	err  error
}

func (d *dec) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: %s at offset %d", msg, d.off)
	}
}

func (d *dec) remaining() int { return len(d.data) - d.off }

func (d *dec) u8() byte {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 1 {
		d.err = fmt.Errorf("%w: need 1 byte at offset %d", ErrTruncated, d.off)
		return 0
	}
	v := d.data[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 4 {
		d.err = fmt.Errorf("%w: need 4 bytes at offset %d", ErrTruncated, d.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.data[d.off:])
	d.off += 4
	return v
}

// count reads an element count and validates count*elemSize against the
// remaining payload.
func (d *dec) count(elemSize int) int {
	n := int(d.u32())
	return d.checkCount(n, elemSize)
}

// checkCount validates an externally derived count the same way.
func (d *dec) checkCount(n, elemSize int) int {
	if d.err != nil {
		return 0
	}
	if n < 0 || n > d.remaining()/elemSize {
		d.err = fmt.Errorf("%w: %d elements claimed with %d bytes left at offset %d",
			ErrTruncated, n, d.remaining(), d.off)
		return 0
	}
	return n
}

func (d *dec) i32s(n int) []int32 {
	if d.checkCount(n, 4) == 0 {
		return nil
	}
	out := make([]int32, n)
	raw := d.data[d.off : d.off+4*n]
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	d.off += 4 * n
	return out
}

func (d *dec) runes(n int) []rune {
	if d.checkCount(n, 4) == 0 {
		return nil
	}
	out := make([]rune, n)
	raw := d.data[d.off : d.off+4*n]
	for i := range out {
		out[i] = rune(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	d.off += 4 * n
	return out
}

func (d *dec) bytes(n int) []byte {
	if d.checkCount(n, 1) == 0 {
		return nil
	}
	out := d.data[d.off : d.off+n : d.off+n]
	d.off += n
	return out
}

// strings reads a table written by enc.strings (self-delimiting: the
// count is part of the encoding). All values share one backing string,
// sliced out of a single blob conversion.
func (d *dec) strings() []string {
	n := d.count(4)
	if d.err != nil {
		return nil
	}
	lens := d.i32s(n)
	total := 0
	for _, l := range lens {
		if l < 0 {
			d.fail("negative string length")
			return nil
		}
		total += int(l)
	}
	blob := string(d.bytes(d.checkCount(total, 1)))
	if d.err != nil {
		return nil
	}
	out := make([]string, n)
	off := 0
	for i := 0; i < n; i++ {
		l := int(lens[i])
		out[i] = blob[off : off+l]
		off += l
	}
	return out
}
