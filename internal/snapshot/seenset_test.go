package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestSeenSetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seen.set")
	hashes := []uint64{1, 7, 42, 1 << 40, 1<<63 + 5}
	if err := WriteSeenSetFile(path, hashes); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSeenSetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(hashes) {
		t.Fatalf("round trip: %d entries, want %d", len(got), len(hashes))
	}
	for i := range hashes {
		if got[i] != hashes[i] {
			t.Fatalf("entry %d = %d, want %d", i, got[i], hashes[i])
		}
	}
}

func TestSeenSetEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seen.set")
	if err := WriteSeenSetFile(path, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSeenSetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty set round-tripped to %d entries", len(got))
	}
}

func TestSeenSetMissingFileIsEmpty(t *testing.T) {
	got, err := ReadSeenSetFile(filepath.Join(t.TempDir(), "nope.set"))
	if err != nil || got != nil {
		t.Fatalf("missing file = (%v, %v), want (nil, nil)", got, err)
	}
}

func TestSeenSetRejectsUnsorted(t *testing.T) {
	if _, err := MarshalSeenSet([]uint64{3, 2}); err == nil {
		t.Error("marshal accepted an unsorted set")
	}
	if _, err := MarshalSeenSet([]uint64{3, 3}); err == nil {
		t.Error("marshal accepted a duplicate entry")
	}
}

func TestSeenSetRejectsCorruption(t *testing.T) {
	data, err := MarshalSeenSet([]uint64{10, 20, 30, 40})
	if err != nil {
		t.Fatal(err)
	}

	// Flip one payload bit: CRC must catch it.
	bad := append([]byte(nil), data...)
	bad[envelopeMagicLen+4+8+3] ^= 0x10 // inside the first entry, past the count
	if _, err := UnmarshalSeenSet(bad); !errors.Is(err, ErrChecksum) {
		t.Errorf("bit flip: err = %v, want ErrChecksum", err)
	}

	// Truncate: length check must catch it.
	if _, err := UnmarshalSeenSet(data[:len(data)-6]); err == nil {
		t.Error("truncated seen-set accepted")
	}

	// Wrong magic.
	bad = append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := UnmarshalSeenSet(bad); err == nil {
		t.Error("wrong magic accepted")
	}

	// Resealed damage: out-of-order payload behind a valid CRC must
	// still be rejected — CRC protects against accidents, the sort
	// invariant protects the binary search.
	var payload []byte
	payload = appendU64(payload, 2)
	payload = appendU64(payload, 30)
	payload = appendU64(payload, 10)
	resealed := SealEnvelope(SeenMagic, SeenVersion, payload)
	if _, err := UnmarshalSeenSet(resealed); err == nil {
		t.Error("resealed out-of-order seen-set accepted")
	}
}

func TestSeenSetWriteIsAtomic(t *testing.T) {
	// An existing artifact must survive a failed write (unwritable temp
	// dir is hard to simulate portably; assert the temp file never
	// lingers and the final file parses).
	dir := t.TempDir()
	path := filepath.Join(dir, "seen.set")
	if err := WriteSeenSetFile(path, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := WriteSeenSetFile(path, []uint64{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("temp files lingered: %v", entries)
	}
	got, err := ReadSeenSetFile(path)
	if err != nil || len(got) != 3 || got[0] != 4 {
		t.Errorf("second write not visible: (%v, %v)", got, err)
	}
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// FuzzUnmarshalSeenSet: any input — taken raw, and sealed as a SHAMSEEN
// payload so the entry decoder sees it past the checksum — is either
// rejected or re-marshals byte-identically.
func FuzzUnmarshalSeenSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, SealEnvelope(SeenMagic, SeenVersion, data)} {
			hashes, err := UnmarshalSeenSet(in)
			if err != nil {
				continue
			}
			if out, err := MarshalSeenSet(hashes); err != nil || !bytes.Equal(out, in) {
				t.Fatalf("UnmarshalSeenSet(%q) = %v, re-marshals to (%q, %v)", in, hashes, out, err)
			}
		}
	})
}
