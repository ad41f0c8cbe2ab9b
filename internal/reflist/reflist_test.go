package reflist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/domain"
	"repro/internal/ranking"
)

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "refs.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadPlainList(t *testing.T) {
	path := writeTemp(t, "google.com\n# comment\nFACEBOOK.COM\n\namazon\n")
	refs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"google", "facebook", "amazon"}
	if !reflect.DeepEqual(refs, want) {
		t.Fatalf("refs = %v, want %v", refs, want)
	}
}

func TestLoadNoTrailingNewline(t *testing.T) {
	refs, err := Load(writeTemp(t, "google.com\nfacebook.com"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"google", "facebook"}; !reflect.DeepEqual(refs, want) {
		t.Fatalf("refs = %v, want %v", refs, want)
	}
}

func TestLoadCSV(t *testing.T) {
	refs, err := Load(writeTemp(t, "1,google.com\n2,facebook.com\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"google", "facebook"}; !reflect.DeepEqual(refs, want) {
		t.Fatalf("refs = %v, want %v", refs, want)
	}
}

// TestLoadCommaBeyondFirstLine is the sniffing regression: a plain
// list with a comma somewhere in its first 512 bytes (but not on line 1)
// used to be misrouted to the CSV parser.
func TestLoadCommaBeyondFirstLine(t *testing.T) {
	path := writeTemp(t, "google.com\n# ranked, by popularity\nfacebook.com\n")
	refs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"google", "facebook"}
	if !reflect.DeepEqual(refs, want) {
		t.Fatalf("refs = %v, want %v (comma on line 2 misrouted to CSV?)", refs, want)
	}
}

// TestLoadLongFirstLine: the sniff must work for first lines longer
// than any fixed head buffer.
func TestLoadLongFirstLine(t *testing.T) {
	long := strings.Repeat("a", 5000)
	refs, err := Load(writeTemp(t, long+".com\ngoogle.com\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 || refs[0] != long || refs[1] != "google" {
		t.Fatalf("unexpected refs (%d entries)", len(refs))
	}
}

// TestLoadMultiTLD is the registrable-label regression: the seed
// TrimSuffix(d, ".com") indexed "amazon.co.uk" verbatim (an impossible
// reference) and "google.net" with its TLD glued on. Every TLD must
// route through the suffix-aware splitter.
func TestLoadMultiTLD(t *testing.T) {
	path := writeTemp(t, "amazon.co.uk\ngoogle.net\nWWW.BBC.CO.UK\nxn--80ak6aa92e.xn--p1ai\npaypal.com\n")
	refs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"amazon", "google", "bbc", "xn--80ak6aa92e", "paypal"}
	if !reflect.DeepEqual(refs, want) {
		t.Fatalf("refs = %v, want %v", refs, want)
	}
}

// TestLoadCSVMultiTLD: the CSV route must keep non-.com rows too
// (the seed's SLDs dropped them before they reached the detector).
func TestLoadCSVMultiTLD(t *testing.T) {
	refs, err := Load(writeTemp(t, "1,google.com\n2,amazon.co.uk\n3,example.net\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"google", "amazon", "example"}
	if !reflect.DeepEqual(refs, want) {
		t.Fatalf("refs = %v, want %v", refs, want)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Fatal("want error for missing file")
	}
}

// TestLoadCSVBlankFirstLine: sniffing must skip blank lines, so a
// rank CSV with a leading blank line still routes to the CSV parser.
func TestLoadCSVBlankFirstLine(t *testing.T) {
	refs, err := Load(writeTemp(t, "\n1,google.com\n2,facebook.com\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"google", "facebook"}; !reflect.DeepEqual(refs, want) {
		t.Fatalf("refs = %v, want %v", refs, want)
	}
}

// TestReadInlineList: inline references, as /v1/reload takes them,
// reduce to the labels the same entries give as lines of a list file.
func TestReadInlineList(t *testing.T) {
	entries := []string{"google.com", "  PayPal.com\t", "# comment", "", "amazon.co.uk", "bücher.de", "ÄÖÜ.example"}
	refs := Labels(entries)
	if want := []string{"google", "paypal", "amazon", "bücher", "äöü"}; !reflect.DeepEqual(refs, want) {
		t.Fatalf("refs = %q, want %q", refs, want)
	}
	fromFile, err := Load(writeTemp(t, strings.Join(entries, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFile, refs) {
		t.Fatalf("file gives %q, inline %q", fromFile, refs)
	}
}

// TestLoadBOM: a list that starts with a UTF-8 byte-order mark, as
// Windows editors write it. The mark used to stay on the first plain
// entry, which then indexed "\ufeffgoogle" and could never match, and
// it failed a rank CSV with a bad rank "\ufeff1".
func TestLoadBOM(t *testing.T) {
	for name, content := range map[string]string{
		"plain list": "\ufeffgoogle.com\npaypal.com\n",
		"rank CSV":   "\ufeff1,google.com\n2,paypal.com\n",
		"CRLF CSV":   "\ufeff1,google.com\r\n2,paypal.com\r\n",
	} {
		refs, err := Load(writeTemp(t, content))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if want := []string{"google", "paypal"}; !reflect.DeepEqual(refs, want) {
			t.Errorf("%s: refs = %q, want %q", name, refs, want)
		}
	}
	// Only one mark is dropped: a second is part of the first entry.
	refs, err := Load(writeTemp(t, "\ufeff\ufeffgoogle.com\n"))
	if err != nil || len(refs) != 1 || refs[0] != "\ufeffgoogle" {
		t.Fatalf("refs = %q, err = %v", refs, err)
	}
}

// TestLoadCSVRepeats: a rank CSV keeps the best-ranked row of each
// label, as ranking.List.SLDs does, while a plain list keeps repeats.
func TestLoadCSVRepeats(t *testing.T) {
	refs, err := Load(writeTemp(t, "1,google.com\n2,paypal.com\n3,google.net\n4,GOOGLE.co.uk\n5,amazon.com\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"google", "paypal", "amazon"}; !reflect.DeepEqual(refs, want) {
		t.Fatalf("CSV refs = %q, want %q", refs, want)
	}
	refs, err = Load(writeTemp(t, "google.com\ngoogle.net\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"google", "google"}; !reflect.DeepEqual(refs, want) {
		t.Fatalf("plain refs = %q, want %q", refs, want)
	}
}

// TestLoadErrors pins each format's errors, their wording and their
// line limits: a line is too long at the limit, counted without its
// newline, and one byte shorter reads.
func TestLoadErrors(t *testing.T) {
	row := func(n int) string { return "1," + strings.Repeat("a", n-2) }
	for _, tc := range []struct {
		name, content, err string
	}{
		{"missing comma", "1,google.com\n\n# c\npaypal.com\n", "ranking: line 4: missing comma"},
		{"bad rank", "1,google.com\nx,paypal.com\n", `ranking: line 2: bad rank "x"`},
		{"out of order", "1,google.com\n3,paypal.com\n", "ranking: line 2: rank 3 out of order"},
		{"CSV line at limit", row(bufio.MaxScanTokenSize), "ranking: bufio.Scanner: token too long"},
		{"CSV line under limit", row(bufio.MaxScanTokenSize-1) + "\n", ""},
		{"CSV comment at limit", "1,google.com\n#" + strings.Repeat("a", bufio.MaxScanTokenSize-1) + "\n", "ranking: bufio.Scanner: token too long"},
		{"plain line at limit", "google.com\n" + strings.Repeat("a", maxLineBytes), "bufio.Scanner: token too long"},
		{"plain line under limit", "google.com\n" + strings.Repeat("a", maxLineBytes-2) + "\r\n", ""},
		{"sniffed line at limit", strings.Repeat(" ", maxLineBytes) + "\n1,google.com\n", "bufio.Scanner: token too long"},
	} {
		_, err := Load(writeTemp(t, tc.content))
		if got := fmt.Sprint(err); (tc.err == "" && err != nil) || (tc.err != "" && got != tc.err) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.err)
		}
		if oracleErr := fmt.Sprint(oracleErr(t, tc.content)); oracleErr != fmt.Sprint(err) {
			t.Errorf("%s: err = %v, the bufio.Scanner readers say %v", tc.name, err, oracleErr)
		}
	}
}

// TestLoadBlankLinesMemory: a plain list's label index is sized by its
// entries, not its lines, so a file of one entry and a megabyte of
// blank lines costs about its own size to read, not eight times it.
func TestLoadBlankLinesMemory(t *testing.T) {
	data := []byte("google.com\n" + strings.Repeat("\n", 1<<20))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	refs, err := parse(data)
	runtime.ReadMemStats(&after)
	if err != nil || !slices.Equal(refs, []string{"google"}) {
		t.Fatalf("refs = %q, err = %v", refs, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*uint64(len(data)) {
		t.Fatalf("reading %d bytes allocated %d", len(data), got)
	}
}

// oracleErr returns the error the bufio.Scanner readers give content.
func oracleErr(t *testing.T, content string) error {
	t.Helper()
	_, err := oracleLoad([]byte(content))
	return err
}

// TestLoadLeadingComment is the format-detection regression: the
// sniff used to count #-comments, so a plain list headed by a comment
// with a comma went to the CSV parser and failed, and a rank CSV
// headed by a comment without one loaded as inert "1,google" labels.
func TestLoadLeadingComment(t *testing.T) {
	for name, content := range map[string]string{
		"plain list, comment with comma": "# brands, top 10\ngoogle.com\npaypal.com\n",
		"rank CSV, comment without":      "# ranked list\n1,google.com\n2,paypal.com\n",
		"rank CSV, comments between":     "\n# ranked list\n1,google.com\n# second\n2,paypal.com\n",
	} {
		refs, err := Load(writeTemp(t, content))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if want := []string{"google", "paypal"}; !reflect.DeepEqual(refs, want) {
			t.Errorf("%s: refs = %q, want %q", name, refs, want)
		}
	}
}

// oracleLoad is the list reader as it was built on bufio.Scanner,
// kept as FuzzLoad's oracle: a sniffing pass, then a plain reader
// (Registrable per line) or ranking.ParseCSV. It drops one leading
// byte-order mark, as Load does.
func oracleLoad(data []byte) ([]string, error) {
	data = bytes.TrimPrefix(data, []byte("\ufeff"))
	sniff := bufio.NewScanner(bytes.NewReader(data))
	sniff.Buffer(make([]byte, 64*1024), maxLineBytes)
	isCSV := false
	for sniff.Scan() {
		if line := strings.TrimSpace(sniff.Text()); line != "" && !strings.HasPrefix(line, "#") {
			isCSV = strings.Contains(line, ",")
			break
		}
	}
	if err := sniff.Err(); err != nil {
		return nil, err
	}
	if isCSV {
		list, err := ranking.ParseCSV(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		return list.SLDs(list.Len()), nil
	}
	return oracleRead(bytes.NewReader(data))
}

// oracleRead is the plain reader of oracleLoad.
func oracleRead(r io.Reader) ([]string, error) {
	var refs []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	for sc.Scan() {
		d := strings.TrimSpace(sc.Text())
		if d == "" || strings.HasPrefix(d, "#") {
			continue
		}
		if label, _ := domain.Registrable(strings.ToLower(d)); label != "" {
			refs = append(refs, label)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return refs, nil
}

// FuzzLoad checks the one-pass reader against oracleLoad on the same
// bytes: the same labels, or the same error. Inline references share
// the plain reduction, so each plain line must also give what Labels
// gives it.
func FuzzLoad(f *testing.F) {
	for _, seed := range []string{
		"google.com\r\nfacebook.com\r\n",
		"\n\n# brands\ngoogle.com\n\n#x\npaypal.com\n",
		"# ranked, by popularity\ngoogle.com\n",
		"# ranked list\n1,google.com\n# second\n2,paypal.com\n",
		"google.com\nfacebook.com",
		"1,google.com\n2,facebook.com",
		"GOOGLE.COM\nPayPal.Com\n1,X\n",
		"1,AMAZON.CO.UK\n2,amazon.com\n3,bbc.co.uk\n",
		"xn--80ak6aa92e.xn--p1ai\nwww.bbc.co.uk\n",
		"1,xn--80ak6aa92e.xn--p1ai\n2, google.com\n+3,a.b\n",
		"",
		"\ufeff1,google.com\n",
		"\ufeffgoogle.com\n",
		"İSTANBUL.com\nȺ.com\n\xff\xfe.com\n\u00a0google.com\u0085\n",
		"1,google.com\n2\n",
		"1,google.com\n01,paypal.com\n",
		".\n..\ncom.\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := parse(slices.Clone(data))
		want, wantErr := oracleLoad(data)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("err = %v, oracle %v", err, wantErr)
		}
		if err == nil && !slices.Equal(got, want) {
			t.Fatalf("labels = %q, oracle %q", got, want)
		}
		if isCSV, _ := sniff(bytes.TrimPrefix(data, []byte("\ufeff"))); err == nil && !isCSV {
			lines := strings.Split(string(bytes.TrimPrefix(data, []byte("\ufeff"))), "\n")
			if inline := Labels(lines); !slices.Equal(inline, got) {
				t.Fatalf("Labels = %q, file %q", inline, got)
			}
		}
	})
}
