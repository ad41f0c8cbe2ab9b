// Package zonefile reads and writes RFC 1035 master files — the format
// registries such as Verisign publish their TLD zones in and the input
// to Step 1 of the ShamFinder pipeline. It supports $ORIGIN and $TTL
// directives, relative and absolute owner names, owner-name inheritance
// (blank owner columns), parenthesised multi-line records (as used by
// SOA), semicolon comments, and quoted TXT strings.
package zonefile

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/netip"
	"strconv"
	"strings"

	"repro/internal/dnswire"
)

// Zone is a parsed master file: an ordered list of records plus the
// origin they were loaded under.
type Zone struct {
	Origin  string // canonical, e.g. "com."
	TTL     uint32 // default TTL from $TTL, 0 if unset
	Records []dnswire.Record
}

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("zonefile: line %d: %s", e.Line, e.Msg)
}

// Parse reads a master file. origin seeds $ORIGIN handling and may be
// overridden by a $ORIGIN directive in the file; pass "" if the file is
// self-contained.
func Parse(r io.Reader, origin string) (*Zone, error) {
	z := &Zone{Origin: dnswire.CanonicalName(origin)}
	if origin == "" {
		z.Origin = ""
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)

	lineNo := 0
	lastOwner := ""
	var pending []string // tokens accumulated across a parenthesised group
	pendingStart := 0
	depth := 0

	flush := func(tokens []string, line int) error {
		if len(tokens) == 0 {
			return nil
		}
		rec, owner, err := z.parseRecord(tokens, lastOwner)
		if err != nil {
			return &ParseError{Line: line, Msg: err.Error()}
		}
		lastOwner = owner
		z.Records = append(z.Records, rec)
		return nil
	}

	for sc.Scan() {
		lineNo++
		line := sc.Text()
		tokens, opened, closed, err := tokenize(line)
		if err != nil {
			return nil, &ParseError{Line: lineNo, Msg: err.Error()}
		}
		// Directives are only recognised at the start of a record.
		if depth == 0 && len(tokens) > 0 && strings.HasPrefix(tokens[0], "$") {
			if err := z.directive(tokens); err != nil {
				return nil, &ParseError{Line: lineNo, Msg: err.Error()}
			}
			continue
		}
		// A line whose first character is whitespace inherits the
		// previous owner; tokenize records that via a leading marker.
		if depth == 0 {
			pending = tokens
			pendingStart = lineNo
		} else {
			// Leading whitespace on a continuation line inside a '('
			// group is just formatting, not owner inheritance.
			if len(tokens) > 0 && tokens[0] == ownerInherit {
				tokens = tokens[1:]
			}
			pending = append(pending, tokens...)
		}
		depth += opened - closed
		if depth < 0 {
			return nil, &ParseError{Line: lineNo, Msg: "unbalanced ')'"}
		}
		if depth == 0 {
			if err := flush(pending, pendingStart); err != nil {
				return nil, err
			}
			pending = nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("zonefile: %w", err)
	}
	if depth != 0 {
		return nil, &ParseError{Line: lineNo, Msg: "unterminated '(' group"}
	}
	return z, nil
}

// ownerInherit is the token emitted when a line starts with whitespace,
// meaning "reuse the previous owner name".
const ownerInherit = "\x00inherit"

// tokenize splits one line into tokens, handling comments, quoted
// strings and parentheses. It reports how many unquoted '(' and ')'
// appeared so the caller can track multi-line groups.
func tokenize(line string) (tokens []string, opened, closed int, err error) {
	i := 0
	n := len(line)
	if n > 0 && (line[0] == ' ' || line[0] == '\t') {
		tokens = append(tokens, ownerInherit)
	}
	for i < n {
		c := line[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == ';':
			return tokens, opened, closed, nil
		case c == '(':
			opened++
			i++
		case c == ')':
			closed++
			i++
		case c == '"':
			// Fast path: scan to the closing quote; only strings that
			// actually contain a backslash escape pay for a Builder.
			j := i + 1
			for j < n && line[j] != '"' && line[j] != '\\' {
				j++
			}
			if j < n && line[j] == '"' {
				tokens = append(tokens, "\""+line[i+1:j])
				i = j + 1
				continue
			}
			var sb strings.Builder
			sb.WriteByte('"')
			sb.WriteString(line[i+1 : j])
			for j < n && line[j] != '"' {
				if line[j] == '\\' && j+1 < n {
					j++
				}
				sb.WriteByte(line[j])
				j++
			}
			if j >= n {
				return nil, 0, 0, fmt.Errorf("unterminated quoted string")
			}
			tokens = append(tokens, sb.String())
			i = j + 1
		default:
			j := i
			for j < n && !isDelim(line[j]) {
				j++
			}
			tokens = append(tokens, line[i:j])
			i = j
		}
	}
	return tokens, opened, closed, nil
}

// isDelim reports whether c ends a bare token. A byte switch compiles to
// a branch table, replacing the per-byte strings.ContainsRune scan that
// dominated tokenize on long records.
func isDelim(c byte) bool {
	switch c {
	case ' ', '\t', ';', '(', ')', '"':
		return true
	}
	return false
}

func (z *Zone) directive(tokens []string) error {
	switch strings.ToUpper(tokens[0]) {
	case "$ORIGIN":
		if len(tokens) != 2 {
			return fmt.Errorf("$ORIGIN wants 1 argument, got %d", len(tokens)-1)
		}
		if !strings.HasSuffix(tokens[1], ".") {
			return fmt.Errorf("$ORIGIN %q must be absolute", tokens[1])
		}
		z.Origin = dnswire.CanonicalName(tokens[1])
		return nil
	case "$TTL":
		if len(tokens) != 2 {
			return fmt.Errorf("$TTL wants 1 argument, got %d", len(tokens)-1)
		}
		ttl, err := parseTTL(tokens[1])
		if err != nil {
			return err
		}
		z.TTL = ttl
		return nil
	case "$INCLUDE":
		return fmt.Errorf("$INCLUDE is not supported")
	default:
		return fmt.Errorf("unknown directive %s", tokens[0])
	}
}

// parseTTL accepts plain seconds or the BIND unit suffixes s/m/h/d/w.
func parseTTL(s string) (uint32, error) {
	mult := uint32(1)
	last := s[len(s)-1]
	switch last {
	case 's', 'S':
		s = s[:len(s)-1]
	case 'm', 'M':
		mult, s = 60, s[:len(s)-1]
	case 'h', 'H':
		mult, s = 3600, s[:len(s)-1]
	case 'd', 'D':
		mult, s = 86400, s[:len(s)-1]
	case 'w', 'W':
		mult, s = 604800, s[:len(s)-1]
	}
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil || v*uint64(mult) > math.MaxUint32 {
		return 0, fmt.Errorf("bad TTL %q", s)
	}
	return uint32(v) * mult, nil
}

// absolute resolves a possibly-relative name against the zone origin.
// "@" means the origin itself. A quoted string or a name with an empty
// label is rejected: neither can be written back as a name.
func (z *Zone) absolute(name string) (string, error) {
	if name == "@" {
		if z.Origin == "" {
			return "", fmt.Errorf("@ used with no $ORIGIN")
		}
		return z.Origin, nil
	}
	if strings.HasPrefix(name, "\"") {
		return "", fmt.Errorf("quoted string %q where a name belongs", name[1:])
	}
	if name != "." && (strings.HasPrefix(name, ".") || strings.Contains(name, "..")) {
		return "", fmt.Errorf("name %q has an empty label", name)
	}
	if strings.HasSuffix(name, ".") {
		return dnswire.CanonicalName(name), nil
	}
	if z.Origin == "" {
		return "", fmt.Errorf("relative name %q with no $ORIGIN", name)
	}
	return dnswire.CanonicalName(name + "." + strings.TrimSuffix(z.Origin, ".")), nil
}

// parseRecord interprets the token list of one logical record line.
// Layout: [owner] [TTL] [class] type rdata...; TTL and class may appear
// in either order (RFC 1035 allows both).
func (z *Zone) parseRecord(tokens []string, lastOwner string) (dnswire.Record, string, error) {
	var rec dnswire.Record
	if len(tokens) == 0 {
		return rec, lastOwner, fmt.Errorf("empty record")
	}
	owner := ""
	if tokens[0] == ownerInherit {
		if lastOwner == "" {
			return rec, "", fmt.Errorf("owner inheritance with no previous owner")
		}
		owner = lastOwner
		tokens = tokens[1:]
	} else {
		var err error
		owner, err = z.absolute(tokens[0])
		if err != nil {
			return rec, "", err
		}
		if strings.HasPrefix(owner, "$") {
			return rec, "", fmt.Errorf("owner %q would be written as a directive", owner)
		}
		tokens = tokens[1:]
	}
	rec.Name = owner
	rec.Class = dnswire.ClassIN
	rec.TTL = z.TTL

	// Consume optional TTL and class in any order before the type.
	var typ dnswire.Type
	for {
		if len(tokens) == 0 {
			return rec, owner, fmt.Errorf("record for %s has no type", owner)
		}
		tok := tokens[0]
		if t, ok := dnswire.TypeByName(tok); ok {
			typ = t
			tokens = tokens[1:]
			break
		}
		if strings.EqualFold(tok, "IN") {
			rec.Class = dnswire.ClassIN
			tokens = tokens[1:]
			continue
		}
		if ttl, err := parseTTL(tok); err == nil {
			rec.TTL = ttl
			tokens = tokens[1:]
			continue
		}
		return rec, owner, fmt.Errorf("unrecognised token %q (not TTL, class or type)", tok)
	}

	data, err := z.parseRData(typ, tokens)
	if err != nil {
		return rec, owner, fmt.Errorf("%s %s: %w", owner, typ, err)
	}
	rec.Data = data
	return rec, owner, nil
}

func (z *Zone) parseRData(typ dnswire.Type, tok []string) (dnswire.RData, error) {
	need := func(n int) error {
		if len(tok) != n {
			return fmt.Errorf("want %d rdata fields, got %d", n, len(tok))
		}
		return nil
	}
	switch typ {
	case dnswire.TypeA:
		if err := need(1); err != nil {
			return nil, err
		}
		addr, err := netip.ParseAddr(tok[0])
		if err != nil || !addr.Is4() {
			return nil, fmt.Errorf("bad IPv4 address %q", tok[0])
		}
		return dnswire.A{Addr: addr}, nil
	case dnswire.TypeAAAA:
		if err := need(1); err != nil {
			return nil, err
		}
		addr, err := netip.ParseAddr(tok[0])
		if err != nil || !addr.Is6() || addr.Is4() {
			return nil, fmt.Errorf("bad IPv6 address %q", tok[0])
		}
		return dnswire.AAAA{Addr: addr}, nil
	case dnswire.TypeNS:
		if err := need(1); err != nil {
			return nil, err
		}
		host, err := z.absolute(tok[0])
		if err != nil {
			return nil, err
		}
		return dnswire.NS{Host: host}, nil
	case dnswire.TypeCNAME:
		if err := need(1); err != nil {
			return nil, err
		}
		target, err := z.absolute(tok[0])
		if err != nil {
			return nil, err
		}
		return dnswire.CNAME{Target: target}, nil
	case dnswire.TypeMX:
		if err := need(2); err != nil {
			return nil, err
		}
		pref, err := strconv.ParseUint(tok[0], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad MX preference %q", tok[0])
		}
		host, err := z.absolute(tok[1])
		if err != nil {
			return nil, err
		}
		return dnswire.MX{Preference: uint16(pref), Host: host}, nil
	case dnswire.TypeTXT:
		if len(tok) == 0 {
			return nil, fmt.Errorf("TXT needs at least one string")
		}
		ss := make([]string, len(tok))
		for i, s := range tok {
			ss[i] = strings.TrimPrefix(s, "\"")
		}
		return dnswire.TXT{Strings: ss}, nil
	case dnswire.TypeSOA:
		if err := need(7); err != nil {
			return nil, err
		}
		mname, err := z.absolute(tok[0])
		if err != nil {
			return nil, err
		}
		rname, err := z.absolute(tok[1])
		if err != nil {
			return nil, err
		}
		var vals [5]uint32
		for i, s := range tok[2:] {
			v, err := parseTTL(s)
			if err != nil {
				return nil, fmt.Errorf("bad SOA field %q", s)
			}
			vals[i] = v
		}
		return dnswire.SOA{
			MName: mname, RName: rname,
			Serial: vals[0], Refresh: vals[1], Retry: vals[2],
			Expire: vals[3], Minimum: vals[4],
		}, nil
	default:
		return nil, fmt.Errorf("unsupported record type %s", typ)
	}
}

// Write emits the zone in master-file form, with $ORIGIN/$TTL header
// lines and names relativised against the origin for compactness.
func (z *Zone) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if z.Origin != "" {
		fmt.Fprintf(bw, "$ORIGIN %s\n", z.Origin)
	}
	if z.TTL != 0 {
		fmt.Fprintf(bw, "$TTL %d\n", z.TTL)
	}
	for _, rec := range z.Records {
		owner := z.relativize(rec.Name)
		fmt.Fprintf(bw, "%s\t%d\t%s\t%s\t%s\n",
			owner, rec.TTL, rec.Class, rec.Data.Type(), z.presentRData(rec.Data))
	}
	return bw.Flush()
}

func (z *Zone) relativize(name string) string {
	name = dnswire.CanonicalName(name)
	if z.Origin == "" {
		return name
	}
	if name == z.Origin {
		return "@"
	}
	if rel, ok := strings.CutSuffix(name, "."+z.Origin); ok && rel != "@" {
		return rel
	}
	return name
}

var txtEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`)

func (z *Zone) presentRData(d dnswire.RData) string {
	switch r := d.(type) {
	case dnswire.NS:
		return z.relativize(r.Host)
	case dnswire.CNAME:
		return z.relativize(r.Target)
	case dnswire.MX:
		return fmt.Sprintf("%d %s", r.Preference, z.relativize(r.Host))
	case dnswire.TXT:
		// Master-file quoting: tokenize undoes a backslash before any
		// byte, so only '"' and '\' need one. Go's %q (TXT.String)
		// would write escapes such as \t that read back as plain letters.
		quoted := make([]string, len(r.Strings))
		for i, s := range r.Strings {
			quoted[i] = `"` + txtEscaper.Replace(s) + `"`
		}
		return strings.Join(quoted, " ")
	default:
		return d.String()
	}
}

// DomainNames returns the unique owner names of NS records in the
// zone, which for a TLD zone is exactly the set of registered
// (delegated) domains — the paper's Step 1 output.
func (z *Zone) DomainNames() []string {
	seen := make(map[string]bool)
	var names []string
	for _, rec := range z.Records {
		if rec.Data.Type() != dnswire.TypeNS {
			continue
		}
		if rec.Name == z.Origin {
			continue // the TLD's own NS set, not a registration
		}
		if !seen[rec.Name] {
			seen[rec.Name] = true
			names = append(names, rec.Name)
		}
	}
	return names
}
