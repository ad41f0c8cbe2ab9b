package core_test

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/confusables"
	"repro/internal/core"
	"repro/internal/fontgen"
	"repro/internal/homoglyph"
	"repro/internal/punycode"
	"repro/internal/ranking"
	"repro/internal/registry"
	"repro/internal/simchar"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/ucd"
)

// zoneCorpus builds the seed-7 zonegen registry at scale 0.001 over the
// 10k-reference list and returns the references plus a label corpus:
// every scannable label of the zone's IDN lines, every reference, the
// rn/vv/cl many-to-one variants of each reference (one per occurrence),
// and one fuzzed homoglyph substitution of each reference.
func zoneCorpus(t *testing.T) (*homoglyph.DB, []string, []string) {
	t.Helper()
	font := fontgen.Generate(fontgen.Options{SkipCJK: true, SkipHangul: true})
	sim, _ := simchar.Build(font, ucd.IDNASet(), simchar.Options{})
	db := homoglyph.New(confusables.Default(), sim, 0)
	list := ranking.Generate(10000, 7, ranking.PaperAnchors())
	reg, err := registry.Generate(registry.Options{Seed: 7, Scale: 0.001, Refs: list, DB: db})
	if err != nil {
		t.Fatal(err)
	}
	var zone bytes.Buffer
	if err := reg.WriteDomainList(&zone); err != nil {
		t.Fatal(err)
	}
	refs := list.SLDs(10000)
	var labels []string
	for _, line := range strings.Split(zone.String(), "\n") {
		if !strings.Contains(line, "xn--") {
			continue
		}
		parts := strings.Split(line, ".")
		labels = append(labels, parts[:len(parts)-1]...)
	}
	labels = append(labels, refs...)
	rng := stats.NewRNG(7)
	for _, ref := range refs {
		for _, p := range [][2]string{{"m", "rn"}, {"rn", "m"}, {"w", "vv"}, {"vv", "w"}, {"d", "cl"}, {"cl", "d"}} {
			for i := 0; ; i++ {
				at := strings.Index(ref[i:], p[0])
				if at < 0 {
					break
				}
				i += at
				labels = append(labels, ref[:i]+p[1]+ref[i+len(p[0]):])
			}
		}
		runes := []rune(ref)
		for subs := 1 + rng.Intn(2); subs > 0; subs-- {
			pos := rng.Intn(len(runes))
			if hs := db.Homoglyphs(runes[pos]); len(hs) > 0 {
				runes[pos] = hs[rng.Intn(len(hs))]
			}
		}
		if a, err := punycode.ToASCIILabel(string(runes)); err == nil {
			labels = append(labels, a)
		}
	}
	return db, refs, append(labels, deadRuneLabels(db, refs)...)
}

// deadRuneLabels returns labels holding runes no reference key can
// contain: CJK labels, and substituted references carrying a CJK rune
// at the end or inside, in ACE and raw UTF-8 form. The CJK rune is
// usually the label's largest code point, so the decoder inserts it
// last. The raw substituted references themselves are live.
func deadRuneLabels(db *homoglyph.DB, refs []string) []string {
	labels := []string{"xn--fiqs8s", "xn--fiq228c", "中国", "例え", "中文例", "\xff\xfe"}
	cjk := []rune("中例語")
	rng := stats.NewRNG(16)
	for i := 0; i < len(refs); i += 7 {
		runes := []rune(refs[i])
		pos := rng.Intn(len(runes))
		if hs := db.Homoglyphs(runes[pos]); len(hs) > 0 {
			runes[pos] = hs[rng.Intn(len(hs))]
		}
		labels = append(labels, string(runes))
		mixed := append(runes[:len(runes):len(runes)], cjk[rng.Intn(len(cjk))])
		inside := slices.Insert(slices.Clone(runes), rng.Intn(len(runes)+1), cjk[rng.Intn(len(cjk))])
		for _, l := range []string{string(mixed), string(inside)} {
			labels = append(labels, l)
			if a, err := punycode.ToASCIILabel(l); err == nil {
				labels = append(labels, a)
			}
		}
	}
	return labels
}

// TestSkeletonDerivedMatchesLinear pins the single-index derivation
// against the seed linear scan, for every source view, on fresh and
// snapshot-loaded detectors, through both spellings of the detect path
// (DetectDomainBackend and DetectDomainBytesBackend must agree): the
// postings backend must equal DetectLabelLinear exactly (order, Diffs
// and Backend included), the skeleton backend must contain every
// linear match, and both-mode must list the linear matches tagged
// both, then the skeleton-only ones.
func TestSkeletonDerivedMatchesLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the zone corpus")
	}
	db, refs, labels := zoneCorpus(t)
	stride := 1
	if raceEnabled {
		stride = 16
	}
	views := []homoglyph.Source{homoglyph.SourceUC, homoglyph.SourceSimChar, homoglyph.SourceUC | homoglyph.SourceSimChar}
	skelOnly, dead := 0, 0
	detect := func(d *core.Detector, l string, be core.Backend) []core.Match {
		ms := d.DetectDomainBackend(l, be)
		if bs := d.DetectDomainBytesBackend([]byte(l), be); !reflect.DeepEqual(bs, ms) {
			t.Fatalf("%v %q: bytes spelling %+v, string spelling %+v", be, l, bs, ms)
		}
		return ms
	}
	for _, use := range views {
		view := db.WithSources(use)
		fresh := core.NewDetector(view, refs)
		_, loaded, err := snapshot.Unmarshal(snapshot.Marshal(view, fresh))
		if err != nil {
			t.Fatal(err)
		}
		matches := 0
		for i := 0; i < len(labels); i += stride {
			l := labels[i]
			lin := fresh.DetectLabelLinear(l)
			matches += len(lin)
			linRefs := make(map[string]bool, len(lin))
			for _, m := range lin {
				linRefs[m.Reference] = true
			}
			for _, d := range []*core.Detector{fresh, loaded} {
				if got := detect(d, l, core.BackendPostings); !reflect.DeepEqual(got, lin) {
					t.Fatalf("%v postings %q:\n got %+v\nwant %+v", use, l, got, lin)
				}
				skel := detect(d, l, core.BackendSkeleton)
				var want []core.Match
				for _, m := range lin {
					m.Backend = core.BackendBoth
					want = append(want, m)
				}
				found := 0
				for _, m := range skel {
					if linRefs[m.Reference] {
						found++
						continue
					}
					want = append(want, m)
				}
				if found != len(lin) {
					t.Fatalf("%v %q: skeleton %+v misses a linear match of %+v", use, l, skel, lin)
				}
				if got := detect(d, l, core.BackendBoth); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v both %q:\n got %+v\nwant %+v", use, l, got, want)
				}
				if d == fresh {
					skelOnly += len(skel) - found
				}
				gated, ungated, isDead := d.Candidates(l)
				if !slices.Equal(gated, ungated) {
					t.Fatalf("%v %q: gated candidates %v, ungated probe %v", use, l, gated, ungated)
				}
				if isDead {
					dead++
				}
			}
		}
		if matches == 0 {
			t.Fatalf("%v: corpus produced no linear matches", use)
		}
	}
	if skelOnly == 0 {
		t.Fatal("corpus produced no skeleton-only matches")
	}
	if dead == 0 {
		t.Fatal("corpus holds no label with a dead rune")
	}
}
