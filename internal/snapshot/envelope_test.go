package snapshot

import (
	"bytes"
	"errors"
	"testing"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	payload := []byte(`{"id":"j1","state":"running"}`)
	sealed := SealEnvelope("SHAMJOBM", 3, payload)
	got, err := OpenEnvelope(sealed, "SHAMJOBM", 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload = %q, want %q", got, payload)
	}
	// Empty payloads round-trip too (a zero-length manifest is the
	// codec's problem, not the envelope's).
	if got, err := OpenEnvelope(SealEnvelope("SHAMJOBM", 3, nil), "SHAMJOBM", 3); err != nil || len(got) != 0 {
		t.Fatalf("empty payload: %q, %v", got, err)
	}
}

func TestEnvelopeRejectsCorruption(t *testing.T) {
	sealed := SealEnvelope("SHAMJOBM", 1, []byte("payload bytes"))
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"wrong magic", SealEnvelope("SHAMSEEN", 1, []byte("payload bytes")), ErrMagic},
		{"future version", SealEnvelope("SHAMJOBM", 2, []byte("payload bytes")), ErrVersion},
		{"truncated", sealed[:len(sealed)-5], ErrChecksum},
		{"too short", sealed[:8], ErrTruncated},
		{"empty", nil, ErrTruncated},
	}
	for _, tc := range cases {
		if _, err := OpenEnvelope(tc.data, "SHAMJOBM", 1); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// Every single-bit flip anywhere in the envelope must be caught.
	for i := range sealed {
		for bit := 0; bit < 8; bit++ {
			damaged := append([]byte(nil), sealed...)
			damaged[i] ^= 1 << bit
			if _, err := OpenEnvelope(damaged, "SHAMJOBM", 1); err == nil {
				t.Fatalf("bit flip at byte %d bit %d went undetected", i, bit)
			}
		}
	}
}

// FuzzOpenEnvelope: any input is either rejected or re-seals to exactly
// the bytes it was opened from. The seed corpus under testdata/fuzz
// holds envelopes written by the codec; `go test -fuzz=FuzzOpenEnvelope`
// explores further.
func FuzzOpenEnvelope(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := OpenEnvelope(data, "SHAMJOBM", 1)
		if err != nil {
			return
		}
		if resealed := SealEnvelope("SHAMJOBM", 1, payload); !bytes.Equal(resealed, data) {
			t.Fatalf("OpenEnvelope(%q) accepted bytes that re-seal to %q", data, resealed)
		}
	})
}
