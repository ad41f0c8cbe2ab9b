package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// The envelope is the one container every durable artifact shares —
// SHAMSNAP snapshots, SHAMSEEN seen-sets, SHAMCKPT watch checkpoints
// and SHAMJOBM job manifests:
//
//	magic [8]byte | version u32 | payload | crc32 u32
//
// with integers little-endian and the CRC-32 (IEEE) covering everything
// before it. The envelope guarantees the family contract — corruption
// anywhere is detected and refused loudly — while leaving the payload
// encoding to each artifact's codec, which validates only its own
// payload once OpenEnvelope has vouched for the bytes.

const envelopeMagicLen = 8

// SealEnvelope wraps payload in the family envelope. magic must be
// exactly 8 bytes (the family convention: "SHAMSNAP", "SHAMSEEN", ...).
func SealEnvelope(magic string, version uint32, payload []byte) []byte {
	if len(magic) != envelopeMagicLen {
		panic(fmt.Sprintf("snapshot: envelope magic %q must be 8 bytes", magic))
	}
	buf := make([]byte, 0, envelopeMagicLen+4+len(payload)+4)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, version)
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// OpenEnvelope validates magic, version and checksum, returning the
// payload. Corruption anywhere — wrong magic, future version, a flipped
// bit, a truncated tail — is an error, never a silently partial payload.
func OpenEnvelope(data []byte, magic string, version uint32) ([]byte, error) {
	if len(magic) != envelopeMagicLen {
		panic(fmt.Sprintf("snapshot: envelope magic %q must be 8 bytes", magic))
	}
	if len(data) < envelopeMagicLen+4+4 {
		return nil, fmt.Errorf("%w: envelope of %d bytes", ErrTruncated, len(data))
	}
	if string(data[:envelopeMagicLen]) != magic {
		return nil, fmt.Errorf("%w: want magic %q", ErrMagic, magic)
	}
	if v := binary.LittleEndian.Uint32(data[envelopeMagicLen:]); v != version {
		return nil, fmt.Errorf("%w: envelope v%d, this build reads v%d", ErrVersion, v, version)
	}
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(data[:len(data)-4]); got != sum {
		return nil, fmt.Errorf("%w: envelope crc %08x, stored %08x", ErrChecksum, got, sum)
	}
	return data[envelopeMagicLen+4 : len(data)-4], nil
}
