package shamfinder

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEngineFacadeSwapAndRebuild(t *testing.T) {
	fw := framework(t)
	e := fw.NewEngine([]string{"google"})
	if e.Epoch() != 1 {
		t.Fatalf("epoch = %d", e.Epoch())
	}
	probe := "xn--ggle-55da.com" // gооgle
	if ms, ep := e.Detector().DetectDomainBackend(probe, BackendPostings), e.Epoch(); len(ms) != 1 || ep != 1 {
		t.Fatalf("epoch-1 probe: %d matches at %d", len(ms), ep)
	}
	if ep := e.Rebuild([]string{"paypal"}); ep != 2 {
		t.Fatalf("Rebuild = %d", ep)
	}
	if ms, ep := e.Detector().DetectDomainBytesBackend([]byte(probe), BackendPostings), e.Epoch(); len(ms) != 0 || ep != 2 {
		t.Fatalf("epoch-2 probe: %d matches at %d", len(ms), ep)
	}
	if ep := e.Swap(fw.NewDetector([]string{"google"})); ep != 3 {
		t.Fatalf("Swap = %d", ep)
	}
	if got := e.Detector().References(); !reflect.DeepEqual(got, []string{"google"}) {
		t.Fatalf("References = %v", got)
	}
}

// TestEngineHotReloadUnderLoad is the facade-level leg of the
// concurrent hot-reload proof (the engine-internal hammer lives in
// internal/core): readers take Detector() once per query and scan the
// probe on it while Rebuild loops, and every answer must agree with
// the reference set of the detector it ran on. Runs in the
// race-enabled tier-1 suite; raceEnabled only scales the iteration
// count down so the instrumented run stays fast.
func TestEngineHotReloadUnderLoad(t *testing.T) {
	fw := framework(t)
	e := fw.NewEngine([]string{"google"})
	swaps := 150
	if raceEnabled {
		swaps = 60
	}
	probe := "xn--ggle-55da.com"
	var stop atomic.Bool
	var bad atomic.Uint64
	var queries atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				det := e.Detector()
				ms := det.DetectDomainBackend(probe, BackendPostings)
				// Odd epochs index "google", even ones "paypal".
				if (det.References()[0] == "google") != (len(ms) == 1) {
					bad.Add(1)
					return
				}
				queries.Add(1)
			}
		}()
	}
	for queries.Load() < 4 {
		runtime.Gosched()
	}
	for i := 0; i < swaps; i++ {
		if e.Epoch()%2 == 1 {
			e.Rebuild([]string{"paypal"})
		} else {
			e.Rebuild([]string{"google"})
		}
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d answers disagreed with their epoch", n)
	}
	if got := e.Epoch(); got != uint64(swaps)+1 {
		t.Fatalf("epoch = %d after %d rebuilds", got, swaps)
	}
}

// TestServeEndToEnd drives the whole facade wiring: engine from a
// snapshot file, HTTP listener, one detect round-trip under the CLI's
// normalization rules, a live reload, and graceful shutdown.
func TestServeEndToEnd(t *testing.T) {
	fw := framework(t)
	snapPath := t.TempDir() + "/serve.snap"
	if err := fw.SaveSnapshot(snapPath, fw.NewDetector([]string{"google"})); err != nil {
		t.Fatal(err)
	}

	ready := make(chan string, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- Serve(ctx, ServeOptions{
			Addr:         "127.0.0.1:0",
			SnapshotPath: snapPath,
			OnListen:     func(addr net.Addr) { ready <- "http://" + addr.String() },
		})
	}()
	var base string
	select {
	case base = <-ready:
	case err := <-done:
		t.Fatalf("Serve exited early: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server never listened")
	}

	post := func(path, body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var v map[string]any
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("unmarshal %q: %v", data, err)
		}
		return resp.StatusCode, v
	}

	// Mixed-case + root dot: the server must answer exactly like the
	// CLI feeder normalizes.
	code, v := post("/v1/detect", `{"fqdn":"XN--GGLE-55DA.COM."}`)
	if code != http.StatusOK || v["epoch"].(float64) != 1 {
		t.Fatalf("detect: %d %v", code, v)
	}
	if n := len(v["matches"].([]any)); n != 1 {
		t.Fatalf("matches = %d", n)
	}
	if code, v = post("/v1/reload", `{"references":["paypal"]}`); code != http.StatusOK || v["epoch"].(float64) != 2 {
		t.Fatalf("reload: %d %v", code, v)
	}
	if _, v = post("/v1/detect", `{"fqdn":"xn--ggle-55da.com"}`); len(v["matches"].([]any)) != 0 {
		t.Fatalf("post-reload detect still matches: %v", v)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not drain")
	}
}

func TestServeNeedsReferences(t *testing.T) {
	err := Serve(context.Background(), ServeOptions{Addr: "127.0.0.1:0"})
	if err == nil {
		t.Fatal("Serve with no refs and no snapshot should fail fast")
	}
}

func TestExtractIDNsPreallocParity(t *testing.T) {
	domains := []string{"plain.com", "xn--bcher-kva.com", "sub.xn--p1ai", "a.b.c", "xn--ggle-55da.net"}
	got := ExtractIDNs(domains)
	want := []string{"xn--bcher-kva.com", "sub.xn--p1ai", "xn--ggle-55da.net"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ExtractIDNs = %v, want %v", got, want)
	}
	if cap(got) != len(want) {
		t.Errorf("cap = %d, want exact-size %d", cap(got), len(want))
	}
	if ExtractIDNs([]string{"plain.com"}) != nil {
		t.Error("no-hit input should return nil, not an empty allocation")
	}
}

func TestExtractIDNsBytesAliasesInput(t *testing.T) {
	domains := [][]byte{
		[]byte("plain.com"),
		[]byte("xn--bcher-kva.com"),
		[]byte("sub.xn--p1ai"),
	}
	got := ExtractIDNsBytes(domains)
	if len(got) != 2 || cap(got) != 2 {
		t.Fatalf("got %d hits, cap %d", len(got), cap(got))
	}
	// The hits alias the input backing arrays — no copying.
	if &got[0][0] != &domains[1][0] || &got[1][0] != &domains[2][0] {
		t.Error("output does not alias input storage")
	}
	if ExtractIDNsBytes([][]byte{[]byte("plain.com")}) != nil {
		t.Error("no-hit input should return nil")
	}
}
