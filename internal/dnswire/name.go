package dnswire

import (
	"bytes"
	"strings"
)

// maxNameOctets is the RFC 1035 limit on the wire form of a name.
const maxNameOctets = 255

// maxLabelOctets is the RFC 1035 limit on one label.
const maxLabelOctets = 63

// CanonicalName lowercases the ASCII letters of s and ensures it ends
// with a single trailing dot, the canonical form used throughout the
// zone store. The root name is ".". Other bytes pass through unchanged:
// DNS compares names case-insensitively in ASCII only (RFC 4343), and a
// Unicode fold would rewrite bytes that are not valid UTF-8.
func CanonicalName(s string) string {
	s = strings.TrimSuffix(s, ".")
	if s == "" {
		return "."
	}
	var sb strings.Builder
	sb.Grow(len(s) + 1)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		sb.WriteByte(c)
	}
	sb.WriteByte('.')
	return sb.String()
}

// SplitLabels splits a canonical name into its labels, excluding the
// root. "example.com." yields ["example", "com"].
func SplitLabels(name string) []string {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return nil
	}
	return strings.Split(name, ".")
}

// nameCompressor tracks where names (and their suffixes) were written so
// later occurrences can be replaced with 2-octet pointers (RFC 1035
// §4.1.4). Pointers can only target the first 0x3FFF octets.
type nameCompressor map[string]int

// packName appends the wire form of name to buf, compressing against
// previously written names in cmp. cmp may be nil to disable
// compression (required inside RDATA of unknown types).
func packName(buf []byte, name string, cmp nameCompressor) ([]byte, error) {
	name = CanonicalName(name)
	if name == "." {
		return append(buf, 0), nil
	}
	if len(name) > maxNameOctets {
		return buf, ErrNameTooLong
	}
	labels := SplitLabels(name)
	for i := range labels {
		suffix := strings.Join(labels[i:], ".") + "."
		if cmp != nil {
			if ptr, ok := cmp[suffix]; ok {
				return appendUint16(buf, 0xC000|uint16(ptr)), nil
			}
			if len(buf) < 0x3FFF {
				cmp[suffix] = len(buf)
			}
		}
		label := labels[i]
		if len(label) > maxLabelOctets {
			return buf, ErrLabelTooLong
		}
		if len(label) == 0 {
			return buf, ErrTruncatedMessage
		}
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
	}
	return append(buf, 0), nil
}

// unpackName reads a possibly-compressed name starting at off within
// msg. It returns the canonical text form and the offset of the first
// octet after the name's in-place representation (i.e. after the
// pointer if one was followed).
func unpackName(msg []byte, off int) (string, int, error) {
	var sb strings.Builder
	// next is the offset to resume at once the first pointer is taken;
	// -1 means no pointer has been followed yet.
	next := -1
	hops := 0
	total := 0
	for {
		if off >= len(msg) {
			return "", 0, ErrTruncatedMessage
		}
		b := msg[off]
		switch {
		case b == 0:
			if next >= 0 {
				off = next
			} else {
				off++
			}
			if sb.Len() == 0 {
				return ".", off, nil
			}
			return sb.String(), off, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return "", 0, ErrTruncatedMessage
			}
			ptr := int(b&0x3F)<<8 | int(msg[off+1])
			if next < 0 {
				next = off + 2
			}
			hops++
			// A message of at most 64 KiB can hold fewer than 16 K
			// distinct pointer targets; more hops than that is a loop.
			if hops > len(msg)/2+1 {
				return "", 0, ErrPointerLoop
			}
			off = ptr
		case b&0xC0 != 0:
			return "", 0, ErrTruncatedMessage // reserved label types
		default:
			n := int(b)
			if off+1+n > len(msg) {
				return "", 0, ErrTruncatedMessage
			}
			total += n + 1
			if total > maxNameOctets {
				return "", 0, ErrNameTooLong
			}
			if bytes.IndexByte(msg[off+1:off+1+n], '.') >= 0 {
				return "", 0, ErrDotInLabel
			}
			sb.Write(toLowerAppend(msg[off+1 : off+1+n]))
			sb.WriteByte('.')
			off += 1 + n
		}
	}
}

// toLowerAppend lowercases ASCII bytes without allocating for the
// common already-lowercase case.
func toLowerAppend(b []byte) []byte {
	lower := true
	for _, c := range b {
		if 'A' <= c && c <= 'Z' {
			lower = false
			break
		}
	}
	if lower {
		return b
	}
	out := make([]byte, len(b))
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		out[i] = c
	}
	return out
}
