package snapshot

import (
	"encoding/binary"
	"fmt"
	"os"
)

// The seen-set artifact: the zone watcher's durable memory of every
// FQDN fingerprint it has ever observed, persisted as a SHAMSEEN
// envelope (see envelope.go) and written via temp-file + rename. The
// payload is a u64 entry count and one sorted array of 64-bit hashes,
// so loading is a checksum pass plus a single bulk decode (no
// per-entry parsing, no map build): a 10M-domain set loads in
// milliseconds and answers membership by binary search.

// SeenMagic identifies a seen-set file.
const SeenMagic = "SHAMSEEN"

// SeenVersion is the current seen-set format version.
const SeenVersion = 1

// MarshalSeenSet serializes the fingerprints. They must be sorted
// ascending and deduplicated — the reader validates and rejects
// otherwise, because an unsorted set would silently break the binary
// search and re-emit the whole zone as "new".
func MarshalSeenSet(hashes []uint64) ([]byte, error) {
	payload := make([]byte, 0, 8+8*len(hashes))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(len(hashes)))
	var prev uint64
	for i, h := range hashes {
		if i > 0 && h <= prev {
			return nil, fmt.Errorf("snapshot: seen-set not sorted/unique at index %d", i)
		}
		prev = h
		payload = binary.LittleEndian.AppendUint64(payload, h)
	}
	return SealEnvelope(SeenMagic, SeenVersion, payload), nil
}

// UnmarshalSeenSet opens the envelope, then decodes the sorted
// fingerprint array. Corruption anywhere — a flipped bit, a truncated
// tail, an out-of-order entry — fails loudly: a silently shrunken
// seen-set would re-emit already-reported domains, the one mistake a
// monitoring pipeline must never make.
func UnmarshalSeenSet(data []byte) ([]uint64, error) {
	payload, err := OpenEnvelope(data, SeenMagic, SeenVersion)
	if err != nil {
		return nil, err
	}
	if len(payload) < 8 {
		return nil, fmt.Errorf("%w: seen-set payload of %d bytes", ErrTruncated, len(payload))
	}
	n := binary.LittleEndian.Uint64(payload)
	payload = payload[8:]
	if len(payload)%8 != 0 || uint64(len(payload)/8) != n {
		return nil, fmt.Errorf("%w: seen-set claims %d entries with %d payload bytes", ErrTruncated, n, len(payload))
	}
	hashes := make([]uint64, n)
	var prev uint64
	for i := range hashes {
		h := binary.LittleEndian.Uint64(payload[8*i:])
		if i > 0 && h <= prev {
			return nil, fmt.Errorf("snapshot: seen-set out of order at index %d", i)
		}
		prev = h
		hashes[i] = h
	}
	return hashes, nil
}

// WriteSeenSetFile persists the sorted fingerprints atomically.
func WriteSeenSetFile(path string, hashes []uint64) error {
	data, err := MarshalSeenSet(hashes)
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, data)
}

// ReadSeenSetFile loads a seen-set. A missing file is not an error —
// it is the empty set every watch deployment starts from — and is
// reported as (nil, nil).
func ReadSeenSetFile(path string) ([]uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	return UnmarshalSeenSet(data)
}
