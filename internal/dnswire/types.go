// Package dnswire implements an RFC 1035 DNS message codec: header,
// question and resource-record encoding/decoding with full name
// compression support, plus the record types the ShamFinder measurement
// pipeline probes for (A, NS, MX, CNAME, TXT, SOA, AAAA) and EDNS0 OPT.
//
// The codec follows the decode-into-preallocated-struct style: Message
// has an Unpack method that reuses its slices across calls where
// possible, and Pack appends into a caller-provided buffer, so steady-
// state probing allocates close to nothing.
package dnswire

import (
	"errors"
	"fmt"
	"strings"
)

// Type is a DNS RR TYPE (RFC 1035 §3.2.2 plus later allocations).
type Type uint16

// Record types used by the measurement pipeline.
const (
	TypeNone  Type = 0
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypeMX    Type = 15
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeOPT   Type = 41
	TypeANY   Type = 255
)

var typeNames = map[Type]string{
	TypeA:     "A",
	TypeNS:    "NS",
	TypeCNAME: "CNAME",
	TypeSOA:   "SOA",
	TypeMX:    "MX",
	TypeTXT:   "TXT",
	TypeAAAA:  "AAAA",
	TypeOPT:   "OPT",
	TypeANY:   "ANY",
}

// String returns the mnemonic for t, or "TYPE<n>" for unknown types
// (RFC 3597 generic notation).
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// TypeByName maps a mnemonic like "MX" back to its Type code.
func TypeByName(s string) (Type, bool) {
	for t, name := range typeNames {
		if name == strings.ToUpper(s) {
			return t, true
		}
	}
	return TypeNone, false
}

// Class is a DNS CLASS. Only IN is used in practice.
type Class uint16

// DNS classes.
const (
	ClassIN  Class = 1
	ClassANY Class = 255
)

// String returns the mnemonic for c.
func (c Class) String() string {
	switch c {
	case ClassIN:
		return "IN"
	case ClassANY:
		return "ANY"
	}
	return fmt.Sprintf("CLASS%d", uint16(c))
}

// Opcode is the DNS header operation code.
type Opcode uint8

// Opcodes.
const (
	OpcodeQuery  Opcode = 0
	OpcodeStatus Opcode = 2
)

// RCode is the DNS response code.
type RCode uint8

// Response codes (RFC 1035 §4.1.1).
const (
	RCodeSuccess        RCode = 0 // NOERROR
	RCodeFormatError    RCode = 1 // FORMERR
	RCodeServerFailure  RCode = 2 // SERVFAIL
	RCodeNameError      RCode = 3 // NXDOMAIN
	RCodeNotImplemented RCode = 4 // NOTIMP
	RCodeRefused        RCode = 5 // REFUSED
)

var rcodeNames = map[RCode]string{
	RCodeSuccess:        "NOERROR",
	RCodeFormatError:    "FORMERR",
	RCodeServerFailure:  "SERVFAIL",
	RCodeNameError:      "NXDOMAIN",
	RCodeNotImplemented: "NOTIMP",
	RCodeRefused:        "REFUSED",
}

// String returns the mnemonic for rc.
func (rc RCode) String() string {
	if s, ok := rcodeNames[rc]; ok {
		return s
	}
	return fmt.Sprintf("RCODE%d", uint8(rc))
}

// Codec errors.
var (
	ErrTruncatedMessage = errors.New("dnswire: truncated message")
	ErrNameTooLong      = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong     = errors.New("dnswire: label exceeds 63 octets")
	ErrPointerLoop      = errors.New("dnswire: compression pointer loop")
	ErrTrailingBytes    = errors.New("dnswire: trailing bytes after message")
	ErrTooManyRecords   = errors.New("dnswire: record count exceeds message size")
	// ErrDotInLabel rejects a wire label holding a '.' byte: the dotted
	// text form of a name has no escapes, so it cannot represent one.
	ErrDotInLabel = errors.New("dnswire: label contains a dot")
)

// Header is the fixed 12-octet DNS message header (RFC 1035 §4.1.1).
type Header struct {
	ID                 uint16
	Response           bool   // QR
	Opcode             Opcode // OPCODE
	Authoritative      bool   // AA
	Truncated          bool   // TC
	RecursionDesired   bool   // RD
	RecursionAvailable bool   // RA
	RCode              RCode  // RCODE
}

func (h *Header) pack(buf []byte, counts [4]uint16) []byte {
	var flags uint16
	if h.Response {
		flags |= 1 << 15
	}
	flags |= uint16(h.Opcode&0xf) << 11
	if h.Authoritative {
		flags |= 1 << 10
	}
	if h.Truncated {
		flags |= 1 << 9
	}
	if h.RecursionDesired {
		flags |= 1 << 8
	}
	if h.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(h.RCode & 0xf)
	buf = appendUint16(buf, h.ID)
	buf = appendUint16(buf, flags)
	for _, c := range counts {
		buf = appendUint16(buf, c)
	}
	return buf
}

func (h *Header) unpack(msg []byte) (counts [4]uint16, off int, err error) {
	if len(msg) < 12 {
		return counts, 0, ErrTruncatedMessage
	}
	h.ID = readUint16(msg, 0)
	flags := readUint16(msg, 2)
	h.Response = flags&(1<<15) != 0
	h.Opcode = Opcode(flags >> 11 & 0xf)
	h.Authoritative = flags&(1<<10) != 0
	h.Truncated = flags&(1<<9) != 0
	h.RecursionDesired = flags&(1<<8) != 0
	h.RecursionAvailable = flags&(1<<7) != 0
	h.RCode = RCode(flags & 0xf)
	for i := range counts {
		counts[i] = readUint16(msg, 4+2*i)
	}
	return counts, 12, nil
}

func appendUint16(b []byte, v uint16) []byte {
	return append(b, byte(v>>8), byte(v))
}

func appendUint32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func readUint16(b []byte, off int) uint16 {
	return uint16(b[off])<<8 | uint16(b[off+1])
}

func readUint32(b []byte, off int) uint32 {
	return uint32(b[off])<<24 | uint32(b[off+1])<<16 | uint32(b[off+2])<<8 | uint32(b[off+3])
}
