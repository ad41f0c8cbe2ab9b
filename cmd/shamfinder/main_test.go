package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro"
)

// TestLoadRefsRoutesThroughReflist pins the CLI to the shared loader:
// the full parsing suite (CSV sniffing, multi-TLD registrable labels,
// comments) lives in internal/reflist, which the serve layer's
// /v1/reload endpoint shares — one implementation, one behaviour.
func TestLoadRefsRoutesThroughReflist(t *testing.T) {
	path := filepath.Join(t.TempDir(), "refs.txt")
	if err := os.WriteFile(path, []byte("google.com\namazon.co.uk\n# note\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, det, err := shamfinder.Resolve("", path, builder(true, "both"), true)
	if err != nil {
		t.Fatal(err)
	}
	refs := det.References()
	want := []string{"google", "amazon"}
	if !reflect.DeepEqual(refs, want) {
		t.Fatalf("refs = %v, want %v", refs, want)
	}
}

// TestEmptyReferenceListRejected: a reference list that parses to no
// labels must fail detect and compile loudly, as it fails serve —
// detecting against nothing would report every zone as clean.
func TestEmptyReferenceListRejected(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string]string{"empty.txt": "", "comments.txt": "# only a note\n\n"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		want := "reference list " + path + " is empty"
		if _, _, err := shamfinder.Resolve("", path, builder(true, "both"), true); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Resolve(%s) err = %v, want %q", name, err, want)
		}
		out := filepath.Join(dir, name+".snap")
		if err := cmdCompile([]string{"-fastfont", "-refs", path, "-o", out}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("compile -refs %s err = %v, want %q", name, err, want)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("compile -refs %s wrote %s", name, out)
		}
	}
}

func TestLoadMatchFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "matches.txt")
	data := "# comment\n" +
		"xn--ggle-55da.com\tgoogle.com\tUC\n" +
		"XN--PYPAL-4VE.COM.\n" +
		"xn--ggle-55da.com\tduplicate.com\n" +
		"\n" +
		"xn--bare.net\tbare.net\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	inputs, err := loadMatchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(inputs) != 3 {
		t.Fatalf("inputs = %+v", inputs)
	}
	if inputs[0].FQDN != "xn--ggle-55da.com" || inputs[0].Reference != "google.com" || inputs[0].Source != "UC" {
		t.Errorf("input 0 = %+v", inputs[0])
	}
	if inputs[1].FQDN != "xn--pypal-4ve.com" || inputs[1].Reference != "" {
		t.Errorf("input 1 must be normalized: %+v", inputs[1])
	}
	if inputs[2].FQDN != "xn--bare.net" {
		t.Errorf("input 2 = %+v", inputs[2])
	}
}

func TestParseBlacklistFlags(t *testing.T) {
	if set, err := parseBlacklistFlags(nil); set != nil || err != nil {
		t.Fatalf("no flags: %v %v", set, err)
	}
	dir := t.TempDir()
	hp := filepath.Join(dir, "hp.txt")
	if err := os.WriteFile(hp, []byte("127.0.0.1 bad.com\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	set, err := parseBlacklistFlags([]string{"hphosts=" + hp})
	if err != nil {
		t.Fatal(err)
	}
	if !set.HpHosts.Contains("bad.com") || set.HpHosts.Name != "hpHosts" {
		t.Errorf("hpHosts = %+v", set.HpHosts)
	}
	if set.GSB.Len() != 0 || set.Symantec.Len() != 0 {
		t.Error("unnamed feeds must stay empty")
	}
	if _, err := parseBlacklistFlags([]string{"nope=" + hp}); err == nil {
		t.Error("unknown feed name must fail")
	}
	if _, err := parseBlacklistFlags([]string{"justapath"}); err == nil {
		t.Error("missing = must fail")
	}
}
