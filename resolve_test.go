package shamfinder

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

// TestResolutionRuleAcrossSurfaces runs one matrix — snapshot with an
// embedded detector, without one, or none; reference file, empty
// reference file, inline list, inline list that reduces to nothing,
// no list, or a file and an inline list — through every surface that picks a detector: the CLI
// (Resolve), Serve and WatchZone (buildEngine), /v1/reload over HTTP
// and the snapshot watcher. Each surface must serve the same reference
// set, or fail, for the same inputs.
func TestResolutionRuleAcrossSurfaces(t *testing.T) {
	fw := framework(t)
	dir := t.TempDir()
	write := func(name, data string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	withDet := filepath.Join(dir, "with-det.snap")
	if err := fw.SaveSnapshot(withDet, fw.NewDetector([]string{"google", "facebook"})); err != nil {
		t.Fatal(err)
	}
	noDet := filepath.Join(dir, "no-det.snap")
	if err := fw.SaveSnapshot(noDet, nil); err != nil {
		t.Fatal(err)
	}
	refsFile := write("refs.txt", "# brands, top 2\npaypal.com\nwikipedia.org\n")
	emptyFile := write("empty.txt", "# nothing yet\n\n")

	type list struct {
		name   string
		refs   string   // reference file
		inline []string // inline references
		want   []string // labels the list reduces to; nil = fails
	}
	lists := []list{
		{name: "refs file", refs: refsFile, want: []string{"paypal", "wikipedia"}},
		{name: "empty refs file", refs: emptyFile},
		{name: "inline", inline: []string{"PayPal.com", "# note"}, want: []string{"paypal"}},
		{name: "inline to nothing", inline: []string{" ", "# note"}},
		{name: "no list"},
		{name: "refs file over inline", refs: refsFile, inline: []string{"amazon.com"}, want: []string{"paypal", "wikipedia"}},
	}
	snaps := []struct {
		name, path string
		embedded   []string // the embedded detector's labels; nil = none
	}{
		{"snapshot with detector", withDet, []string{"google", "facebook"}},
		{"snapshot without detector", noDet, nil},
		{"no snapshot", "", nil},
	}

	for _, sn := range snaps {
		for _, l := range lists {
			// The expected outcome, by the rule: a named list wins,
			// a named list that reduces to nothing fails, and with no
			// list the snapshot's embedded detector serves or the
			// resolution fails.
			want, source := l.want, ""
			switch {
			case l.refs != "":
				source = "refs:" + l.refs
			case l.inline != nil:
				source = "inline"
			default:
				want = sn.embedded
			}
			if sn.path != "" {
				source = strings.TrimSuffix("snapshot:"+sn.path+" "+source, " ")
			}
			t.Run(sn.name+"/"+l.name, func(t *testing.T) {
				check := func(surface string, got []string, err error) {
					t.Helper()
					switch {
					case want == nil && err == nil:
						t.Errorf("%s: served %q, want an error", surface, got)
					case want != nil && err != nil:
						t.Errorf("%s: %v, want references %q", surface, err, want)
					case want != nil:
						slices.Sort(got)
						if w := slices.Sorted(slices.Values(want)); !slices.Equal(got, w) {
							t.Errorf("%s: references %q, want %q", surface, got, w)
						}
					}
				}

				// CLI: the path every subcommand takes. It names no
				// inline list.
				if l.inline == nil {
					_, det, err := Resolve(sn.path, l.refs, func() (*Framework, error) { return fw, nil }, true)
					var got []string
					if err == nil {
						got = det.References()
					}
					check("CLI", got, err)
				}

				// Serve and WatchZone.
				engine, _, err := buildEngine(ServeOptions{
					SnapshotPath: sn.path,
					RefsPath:     l.refs,
					References:   l.inline,
					Build:        Config{FontScope: FontFast},
				}, func(string, ...any) {})
				var got []string
				if err == nil {
					got = engine.Detector().References()
				}
				check("Serve", got, err)

				// /v1/reload: the status and source it reports too.
				live := fw.NewEngine([]string{"amazon"})
				ts := httptest.NewServer(service.New(service.Config{Engine: live.inner}))
				defer ts.Close()
				body, _ := json.Marshal(map[string]any{"snapshot": sn.path, "refs": l.refs, "references": l.inline})
				resp, err := http.Post(ts.URL+"/v1/reload", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				var rl struct {
					Source string `json:"source"`
					Error  string `json:"error"`
				}
				json.NewDecoder(resp.Body).Decode(&rl)
				resp.Body.Close()
				switch {
				case want == nil && resp.StatusCode != http.StatusUnprocessableEntity:
					t.Errorf("reload: status %d, want 422", resp.StatusCode)
				case want != nil && resp.StatusCode != http.StatusOK:
					t.Errorf("reload: status %d (%s), want 200", resp.StatusCode, rl.Error)
				case want != nil && rl.Source != source:
					t.Errorf("reload: source %q, want %q", rl.Source, source)
				}
				err = nil
				if rl.Error != "" {
					err = errors.New(rl.Error)
				}
				got = nil
				if live.Epoch() == 2 {
					got = live.Detector().References()
				}
				check("reload", got, err)

				// The snapshot watcher swaps in artifacts only; it takes
				// its list inline, so a reference file travels as its
				// lines.
				if sn.path != "" {
					pinned := l.inline
					if l.refs != "" {
						data, err := os.ReadFile(l.refs)
						if err != nil {
							t.Fatal(err)
						}
						pinned = strings.Split(string(data), "\n")
					}
					got, err := watchOnce(t, fw, sn.path, pinned)
					check("WatchSnapshot", got, err)
				}
			})
		}
	}
}

// watchOnce runs the snapshot watcher over path with pinned as its
// list until it swaps (returning the new references) or logs that it
// kept the old epoch (returning the log line as the error).
func watchOnce(t *testing.T, fw *Framework, path string, pinned []string) ([]string, error) {
	t.Helper()
	engine := fw.NewEngine([]string{"amazon"})
	var mu sync.Mutex
	var kept string
	srv := service.New(service.Config{Engine: engine.inner, Logf: func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.Contains(line, "keeping epoch") {
			mu.Lock()
			kept = line
			mu.Unlock()
		}
	}})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	defer func() { cancel(); <-done }()
	go func() {
		defer close(done)
		// A baseline older than the file makes the first poll load it.
		srv.WatchSnapshot(ctx, service.WatchConfig{
			Path:         path,
			Interval:     time.Millisecond,
			Loaded:       time.Unix(1, 0),
			OverrideRefs: pinned,
		})
	}()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if engine.Epoch() == 2 {
			return engine.Detector().References(), nil
		}
		mu.Lock()
		line := kept
		mu.Unlock()
		if line != "" {
			return nil, errors.New(line)
		}
	}
	t.Fatal("watcher neither swapped nor kept its epoch")
	return nil, nil
}
