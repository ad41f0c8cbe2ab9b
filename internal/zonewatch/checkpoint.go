package zonewatch

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/snapshot"
)

// The scan checkpoint. It is deliberately tiny — offsets and a prefix
// CRC, never data — because the deltas file it points into is the real
// journal. PrefixCRC covers every zone byte in [0, ZoneOff): a resume
// re-reads that prefix and must reproduce the CRC exactly before it
// trusts the offset, so a zone that was replaced, truncated or edited
// under an interrupted scan can never be silently continued at a
// meaningless position. Checkpoints are written through the snapshot
// layer's atomic temp-file + fsync + rename, so a crash mid-write
// leaves the previous checkpoint intact.

const (
	ckptMagic   = "SHAMCKPT"
	ckptVersion = 1
	// The SHAMCKPT envelope's payload: complete u8 + zoneSize i64 +
	// zoneOff i64 + prefixCRC u32 + scanStartOut i64 + outOff i64 +
	// emitted u64.
	ckptPayloadSize = 1 + 8 + 8 + 4 + 8 + 8 + 8
)

type checkpoint struct {
	// Complete marks a finished generation: the zone described by
	// ZoneSize/PrefixCRC has been fully scanned and its additions merged
	// into the durable seen-set.
	Complete bool
	// ZoneSize is the zone file's size when the scan opened it.
	ZoneSize int64
	// ZoneOff is the number of zone bytes fully consumed (always a line
	// boundary).
	ZoneOff int64
	// PrefixCRC is the CRC-32 (IEEE) over zone bytes [0, ZoneOff).
	PrefixCRC uint32
	// ScanStartOut is the deltas-file size when this scan started; the
	// session's own emissions live in [ScanStartOut, OutOff).
	ScanStartOut int64
	// OutOff is the deltas-file offset covering every fully-written
	// delta line so far.
	OutOff int64
	// Emitted counts delta lines emitted by this scan, for stats.
	Emitted uint64
}

func (c checkpoint) marshal() []byte {
	buf := make([]byte, 0, ckptPayloadSize)
	if c.Complete {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.ZoneSize))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.ZoneOff))
	buf = binary.LittleEndian.AppendUint32(buf, c.PrefixCRC)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.ScanStartOut))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.OutOff))
	buf = binary.LittleEndian.AppendUint64(buf, c.Emitted)
	return snapshot.SealEnvelope(ckptMagic, ckptVersion, buf)
}

func unmarshalCheckpoint(data []byte) (checkpoint, error) {
	var c checkpoint
	p, err := snapshot.OpenEnvelope(data, ckptMagic, ckptVersion)
	if err != nil {
		return c, fmt.Errorf("zonewatch: checkpoint: %w", err)
	}
	if len(p) != ckptPayloadSize {
		return c, fmt.Errorf("zonewatch: checkpoint payload of %d bytes, want %d", len(p), ckptPayloadSize)
	}
	if p[0] > 1 {
		return c, fmt.Errorf("zonewatch: checkpoint complete flag %d is not 0 or 1", p[0])
	}
	c.Complete = p[0] == 1
	c.ZoneSize = int64(binary.LittleEndian.Uint64(p[1:]))
	c.ZoneOff = int64(binary.LittleEndian.Uint64(p[9:]))
	c.PrefixCRC = binary.LittleEndian.Uint32(p[17:])
	c.ScanStartOut = int64(binary.LittleEndian.Uint64(p[21:]))
	c.OutOff = int64(binary.LittleEndian.Uint64(p[29:]))
	c.Emitted = binary.LittleEndian.Uint64(p[37:])
	if c.ZoneOff < 0 || c.ZoneSize < 0 || c.OutOff < 0 || c.ScanStartOut < 0 || c.ScanStartOut > c.OutOff {
		return c, fmt.Errorf("zonewatch: checkpoint offsets inconsistent")
	}
	return c, nil
}

func writeCheckpointFile(path string, c checkpoint) error {
	return snapshot.WriteFileAtomic(path, c.marshal())
}

// readCheckpointFile loads the checkpoint. ok is false when the file
// does not exist; a present-but-corrupt checkpoint returns an error so
// the caller can fall back to the conservative rescan path.
func readCheckpointFile(path string) (c checkpoint, ok bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return checkpoint{}, false, nil
		}
		return checkpoint{}, false, err
	}
	c, err = unmarshalCheckpoint(data)
	if err != nil {
		return checkpoint{}, false, err
	}
	return c, true, nil
}

// prefixCRC computes the CRC-32 over r's bytes [0, off) by sequential
// chunked reads — the resume path's proof that the consumed zone prefix
// is byte-identical to what the checkpoint scanned.
func prefixCRC(r io.ReaderAt, off int64) (uint32, error) {
	var crc uint32
	buf := make([]byte, 256<<10)
	for pos := int64(0); pos < off; {
		n := int64(len(buf))
		if off-pos < n {
			n = off - pos
		}
		read, err := r.ReadAt(buf[:n], pos)
		if read > 0 {
			crc = crc32.Update(crc, crc32.IEEETable, buf[:read])
			pos += int64(read)
		}
		if err != nil {
			if err == io.EOF && pos >= off {
				break
			}
			return 0, err
		}
	}
	return crc, nil
}
