package dnswire

import (
	"fmt"
	"net/netip"
	"strings"
)

// Question is the QD-section entry of a DNS message.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// String renders the question in dig-like "name TYPE CLASS" form.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", CanonicalName(q.Name), q.Class, q.Type)
}

func (q Question) pack(buf []byte, cmp nameCompressor) ([]byte, error) {
	buf, err := packName(buf, q.Name, cmp)
	if err != nil {
		return buf, err
	}
	buf = appendUint16(buf, uint16(q.Type))
	buf = appendUint16(buf, uint16(q.Class))
	return buf, nil
}

func unpackQuestion(msg []byte, off int) (Question, int, error) {
	var q Question
	name, off, err := unpackName(msg, off)
	if err != nil {
		return q, 0, err
	}
	if off+4 > len(msg) {
		return q, 0, ErrTruncatedMessage
	}
	q.Name = name
	q.Type = Type(readUint16(msg, off))
	q.Class = Class(readUint16(msg, off+2))
	return q, off + 4, nil
}

// RData is the type-specific payload of a resource record.
type RData interface {
	// Type reports the RR TYPE this payload belongs to.
	Type() Type
	// packRData appends the RDATA wire form. Compression is allowed
	// only for the record types RFC 1035 §4.1.4 sanctions (NS, CNAME,
	// SOA, MX names).
	packRData(buf []byte, cmp nameCompressor) ([]byte, error)
	// String renders the zone-file presentation of the RDATA.
	String() string
}

// A is an IPv4 address record.
type A struct{ Addr netip.Addr }

// Type implements RData.
func (A) Type() Type { return TypeA }

func (a A) packRData(buf []byte, _ nameCompressor) ([]byte, error) {
	if !a.Addr.Is4() {
		return buf, fmt.Errorf("dnswire: A record address %v is not IPv4", a.Addr)
	}
	v4 := a.Addr.As4()
	return append(buf, v4[:]...), nil
}

func (a A) String() string { return a.Addr.String() }

// AAAA is an IPv6 address record.
type AAAA struct{ Addr netip.Addr }

// Type implements RData.
func (AAAA) Type() Type { return TypeAAAA }

func (a AAAA) packRData(buf []byte, _ nameCompressor) ([]byte, error) {
	if !a.Addr.Is6() || a.Addr.Is4In6() {
		return buf, fmt.Errorf("dnswire: AAAA record address %v is not IPv6", a.Addr)
	}
	v6 := a.Addr.As16()
	return append(buf, v6[:]...), nil
}

func (a AAAA) String() string { return a.Addr.String() }

// NS is a name-server record.
type NS struct{ Host string }

// Type implements RData.
func (NS) Type() Type { return TypeNS }

func (r NS) packRData(buf []byte, cmp nameCompressor) ([]byte, error) {
	return packName(buf, r.Host, cmp)
}

func (r NS) String() string { return CanonicalName(r.Host) }

// CNAME is a canonical-name alias record.
type CNAME struct{ Target string }

// Type implements RData.
func (CNAME) Type() Type { return TypeCNAME }

func (r CNAME) packRData(buf []byte, cmp nameCompressor) ([]byte, error) {
	return packName(buf, r.Target, cmp)
}

func (r CNAME) String() string { return CanonicalName(r.Target) }

// MX is a mail-exchanger record.
type MX struct {
	Preference uint16
	Host       string
}

// Type implements RData.
func (MX) Type() Type { return TypeMX }

func (r MX) packRData(buf []byte, cmp nameCompressor) ([]byte, error) {
	buf = appendUint16(buf, r.Preference)
	return packName(buf, r.Host, cmp)
}

func (r MX) String() string {
	return fmt.Sprintf("%d %s", r.Preference, CanonicalName(r.Host))
}

// TXT is a text record holding one or more character strings.
type TXT struct{ Strings []string }

// Type implements RData.
func (TXT) Type() Type { return TypeTXT }

func (r TXT) packRData(buf []byte, _ nameCompressor) ([]byte, error) {
	ss := r.Strings
	if len(ss) == 0 {
		ss = []string{""}
	}
	for _, s := range ss {
		if len(s) > 255 {
			return buf, fmt.Errorf("dnswire: TXT string exceeds 255 octets")
		}
		buf = append(buf, byte(len(s)))
		buf = append(buf, s...)
	}
	return buf, nil
}

func (r TXT) String() string {
	parts := make([]string, len(r.Strings))
	for i, s := range r.Strings {
		parts[i] = fmt.Sprintf("%q", s)
	}
	return strings.Join(parts, " ")
}

// SOA is the start-of-authority record.
type SOA struct {
	MName   string // primary name server
	RName   string // responsible mailbox
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

// Type implements RData.
func (SOA) Type() Type { return TypeSOA }

func (r SOA) packRData(buf []byte, cmp nameCompressor) ([]byte, error) {
	buf, err := packName(buf, r.MName, cmp)
	if err != nil {
		return buf, err
	}
	buf, err = packName(buf, r.RName, cmp)
	if err != nil {
		return buf, err
	}
	for _, v := range [5]uint32{r.Serial, r.Refresh, r.Retry, r.Expire, r.Minimum} {
		buf = appendUint32(buf, v)
	}
	return buf, nil
}

func (r SOA) String() string {
	return fmt.Sprintf("%s %s %d %d %d %d %d",
		CanonicalName(r.MName), CanonicalName(r.RName),
		r.Serial, r.Refresh, r.Retry, r.Expire, r.Minimum)
}

// OPT is the EDNS0 pseudo-record (RFC 6891). Only the UDP payload size
// carried in the CLASS field matters for this codec; it is surfaced via
// Record.Class on OPT records.
type OPT struct{}

// Type implements RData.
func (OPT) Type() Type { return TypeOPT }

func (OPT) packRData(buf []byte, _ nameCompressor) ([]byte, error) { return buf, nil }

func (OPT) String() string { return "" }

// Unknown carries the raw RDATA of a type the codec does not model
// (RFC 3597 treatment). It round-trips byte-for-byte.
type Unknown struct {
	RRType Type
	Data   []byte
}

// Type implements RData.
func (u Unknown) Type() Type { return u.RRType }

func (u Unknown) packRData(buf []byte, _ nameCompressor) ([]byte, error) {
	return append(buf, u.Data...), nil
}

func (u Unknown) String() string {
	return fmt.Sprintf("\\# %d %x", len(u.Data), u.Data)
}

// Record is one resource record with its owner name, TTL and payload.
type Record struct {
	Name  string
	Class Class
	TTL   uint32
	Data  RData
}

// String renders the record in zone-file presentation form.
func (r Record) String() string {
	return fmt.Sprintf("%s %d %s %s %s",
		CanonicalName(r.Name), r.TTL, r.Class, r.Data.Type(), r.Data)
}

func (r Record) pack(buf []byte, cmp nameCompressor) ([]byte, error) {
	buf, err := packName(buf, r.Name, cmp)
	if err != nil {
		return buf, err
	}
	buf = appendUint16(buf, uint16(r.Data.Type()))
	buf = appendUint16(buf, uint16(r.Class))
	buf = appendUint32(buf, r.TTL)
	lenOff := len(buf)
	buf = appendUint16(buf, 0) // RDLENGTH placeholder
	buf, err = r.Data.packRData(buf, cmp)
	if err != nil {
		return buf, err
	}
	rdlen := len(buf) - lenOff - 2
	if rdlen > 0xFFFF {
		return buf, fmt.Errorf("dnswire: RDATA exceeds 65535 octets")
	}
	buf[lenOff] = byte(rdlen >> 8)
	buf[lenOff+1] = byte(rdlen)
	return buf, nil
}

func unpackRecord(msg []byte, off int) (Record, int, error) {
	var rec Record
	name, off, err := unpackName(msg, off)
	if err != nil {
		return rec, 0, err
	}
	if off+10 > len(msg) {
		return rec, 0, ErrTruncatedMessage
	}
	typ := Type(readUint16(msg, off))
	rec.Name = name
	rec.Class = Class(readUint16(msg, off+2))
	rec.TTL = readUint32(msg, off+4)
	rdlen := int(readUint16(msg, off+8))
	off += 10
	if off+rdlen > len(msg) {
		return rec, 0, ErrTruncatedMessage
	}
	rdata := msg[off : off+rdlen]
	rec.Data, err = unpackRData(typ, msg, off, rdata)
	if err != nil {
		return rec, 0, err
	}
	return rec, off + rdlen, nil
}

// unpackRData decodes RDATA. msg and rdStart are needed because name
// fields inside RDATA may contain compression pointers into the whole
// message.
func unpackRData(typ Type, msg []byte, rdStart int, rdata []byte) (RData, error) {
	switch typ {
	case TypeA:
		if len(rdata) != 4 {
			return nil, fmt.Errorf("dnswire: A RDATA is %d octets, want 4", len(rdata))
		}
		return A{Addr: netip.AddrFrom4([4]byte(rdata))}, nil
	case TypeAAAA:
		if len(rdata) != 16 {
			return nil, fmt.Errorf("dnswire: AAAA RDATA is %d octets, want 16", len(rdata))
		}
		return AAAA{Addr: netip.AddrFrom16([16]byte(rdata))}, nil
	case TypeNS:
		host, _, err := unpackName(msg, rdStart)
		if err != nil {
			return nil, err
		}
		return NS{Host: host}, nil
	case TypeCNAME:
		target, _, err := unpackName(msg, rdStart)
		if err != nil {
			return nil, err
		}
		return CNAME{Target: target}, nil
	case TypeMX:
		if len(rdata) < 3 {
			return nil, ErrTruncatedMessage
		}
		host, _, err := unpackName(msg, rdStart+2)
		if err != nil {
			return nil, err
		}
		return MX{Preference: readUint16(rdata, 0), Host: host}, nil
	case TypeTXT:
		if len(rdata) == 0 { // RFC 1035 §3.3.14: one or more strings
			return nil, fmt.Errorf("dnswire: TXT RDATA is empty")
		}
		var ss []string
		for i := 0; i < len(rdata); {
			n := int(rdata[i])
			if i+1+n > len(rdata) {
				return nil, ErrTruncatedMessage
			}
			ss = append(ss, string(rdata[i+1:i+1+n]))
			i += 1 + n
		}
		return TXT{Strings: ss}, nil
	case TypeSOA:
		mname, off, err := unpackName(msg, rdStart)
		if err != nil {
			return nil, err
		}
		rname, off, err := unpackName(msg, off)
		if err != nil {
			return nil, err
		}
		if off+20 > len(msg) || off+20 > rdStart+len(rdata) {
			return nil, ErrTruncatedMessage
		}
		return SOA{
			MName:   mname,
			RName:   rname,
			Serial:  readUint32(msg, off),
			Refresh: readUint32(msg, off+4),
			Retry:   readUint32(msg, off+8),
			Expire:  readUint32(msg, off+12),
			Minimum: readUint32(msg, off+16),
		}, nil
	case TypeOPT:
		return OPT{}, nil
	default:
		return Unknown{RRType: typ, Data: append([]byte(nil), rdata...)}, nil
	}
}
