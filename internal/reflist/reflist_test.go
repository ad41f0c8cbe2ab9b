package reflist

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
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

// TestReadInlineList covers the io.Reader entry the /v1/reload handler
// could grow to accept request-body lists through.
func TestReadInlineList(t *testing.T) {
	refs, err := Read(strings.NewReader("google.com\npaypal.com\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"google", "paypal"}; !reflect.DeepEqual(refs, want) {
		t.Fatalf("refs = %v, want %v", refs, want)
	}
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
