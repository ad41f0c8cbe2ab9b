package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// engineFixture builds two detectors over disjoint reference sets and
// an engine starting on the first. The probe domain is a homograph of
// a set-A reference only, so "does it match" identifies which state a
// query ran against.
func engineFixture(t testing.TB) (e *Engine, detA, detB *Detector, probe string) {
	db := testDB(t)
	detA = NewDetector(db, []string{"google", "facebook", "amazon"})
	detB = NewDetector(db, []string{"paypal", "wikipedia"})
	probe = ace(t, "gооgle") + ".com" // Cyrillic о ×2: matches only set A
	if ms := detA.DetectDomainBackend(probe, BackendPostings); len(ms) == 0 {
		t.Fatal("probe does not match set A")
	}
	if ms := detB.DetectDomainBackend(probe, BackendPostings); len(ms) != 0 {
		t.Fatal("probe matches set B")
	}
	return NewEngine(detA), detA, detB, probe
}

// query scans fqdn on one consistent engine state, reporting its epoch.
func query(e *Engine, fqdn string) ([]Match, uint64) {
	det, ep := e.Current()
	return det.DetectDomainBackend(fqdn, BackendPostings), ep
}

func TestEngineSwapAdvancesEpoch(t *testing.T) {
	e, detA, detB, probe := engineFixture(t)
	if got := e.Epoch(); got != 1 {
		t.Fatalf("initial epoch = %d, want 1", got)
	}
	if ms, ep := query(e, probe); len(ms) == 0 || ep != 1 {
		t.Fatalf("epoch-1 query: %d matches at epoch %d", len(ms), ep)
	}
	if got := e.Swap(detB); got != 2 {
		t.Fatalf("Swap = %d, want 2", got)
	}
	if ms, ep := query(e, probe); len(ms) != 0 || ep != 2 {
		t.Fatalf("epoch-2 query: %d matches at epoch %d", len(ms), ep)
	}
	if got := e.Swap(detA); got != 3 {
		t.Fatalf("second Swap = %d, want 3", got)
	}
	det, ep := e.Current()
	if det != detA || ep != 3 {
		t.Fatalf("Current = (%p, %d), want (%p, 3)", det, ep, detA)
	}
}

func TestEngineRebuildUsesSharedDB(t *testing.T) {
	e, _, _, probe := engineFixture(t)
	ep := e.Rebuild([]string{"paypal"})
	if ep != 2 {
		t.Fatalf("Rebuild epoch = %d, want 2", ep)
	}
	if e.DB() != testDB(t) {
		t.Fatal("rebuilt detector does not share the engine's DB")
	}
	if n := e.Detector().NumReferences(); n != 1 {
		t.Fatalf("NumReferences = %d, want 1", n)
	}
	if ms, _ := query(e, probe); len(ms) != 0 {
		t.Fatal("probe still matches after rebuilding away its reference")
	}
	e.Rebuild([]string{"google"})
	if ms, ep := query(e, probe); len(ms) == 0 || ep != 3 {
		t.Fatalf("after second rebuild: %d matches at epoch %d", len(ms), ep)
	}
}

// TestEngineCurrentAnswersBatchFromOneEpoch pins the pattern batch
// callers use: one Current() load answers every name in the batch,
// even when a swap lands mid-loop.
func TestEngineCurrentAnswersBatchFromOneEpoch(t *testing.T) {
	e, _, detB, probe := engineFixture(t)
	det, ep := e.Current()
	if ep != 1 {
		t.Fatalf("epoch = %d", ep)
	}
	var n int
	for i, fqdn := range []string{probe, "plain.com", probe} {
		if i == 1 {
			e.Swap(detB) // a swap mid-batch must not change the answers
		}
		n += len(det.DetectDomainBackend(fqdn, BackendPostings))
	}
	if n != 2 {
		t.Fatalf("batch found %d matches across a mid-batch swap, want 2", n)
	}
	if _, ep := e.Current(); ep != 2 {
		t.Fatalf("post-swap epoch = %d", ep)
	}
}

// TestEngineConcurrentHotReload is the zero-downtime proof at the
// engine layer: N goroutines take Current() and scan the probe, as a
// string or a byte slice, while a writer loops Swap (and interleaved
// Rebuilds). The detectors alternate per
// epoch — odd epochs hold set A, even hold set B — so every response
// must be exactly consistent with the epoch it reports: a match at an
// even epoch (or a miss at an odd one) is a torn read. Each reader
// also brackets its query between two Epoch() loads to prove freshness:
// the reported epoch can never lag what was already visible before the
// query began. Run with -race; the test is wired into the race-clean
// tier-1 suite.
func TestEngineConcurrentHotReload(t *testing.T) {
	e, detA, detB, probe := engineFixture(t)
	const swaps = 300
	readers := runtime.GOMAXPROCS(0) * 2
	if readers < 4 {
		readers = 4
	}

	var stop atomic.Bool
	var queries atomic.Uint64
	errc := make(chan string, readers)
	fail := func(msg string) {
		select {
		case errc <- msg:
		default:
		}
	}

	var wg sync.WaitGroup
	probeBytes := []byte(probe)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastEpoch uint64
			for !stop.Load() {
				before := e.Epoch()
				var ms []Match
				det, ep := e.Current()
				if r%2 == 0 {
					ms = det.DetectDomainBackend(probe, BackendPostings)
				} else {
					ms = det.DetectDomainBytesBackend(probeBytes, BackendPostings)
				}
				after := e.Epoch()
				wantMatch := ep%2 == 1 // odd epochs hold set A
				if wantMatch != (len(ms) > 0) {
					fail("response inconsistent with its epoch: match across a swap boundary (torn read)")
					return
				}
				if ep < before || ep > after {
					fail("epoch outside the query's bracket: stale state served")
					return
				}
				if ep < lastEpoch {
					fail("epoch went backwards within one goroutine")
					return
				}
				lastEpoch = ep
				queries.Add(1)
			}
		}(r)
	}

	// Let every reader complete at least one query before the storm so
	// "queries continue" is actually exercised against live traffic.
	for queries.Load() < uint64(readers) {
		runtime.Gosched()
	}
	for i := 0; i < swaps; i++ {
		runtime.Gosched()
		var ep uint64
		switch {
		case i%50 == 25: // a full rebuild mid-storm, off the shared DB
			if e.Epoch()%2 == 1 {
				ep = e.Rebuild([]string{"paypal", "wikipedia"})
			} else {
				ep = e.Rebuild([]string{"google", "facebook", "amazon"})
			}
		case e.Epoch()%2 == 1:
			ep = e.Swap(detB)
		default:
			ep = e.Swap(detA)
		}
		if ep != uint64(i)+2 {
			t.Fatalf("swap %d installed epoch %d, want %d", i, ep, i+2)
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case msg := <-errc:
		t.Fatal(msg)
	default:
	}
	if queries.Load() == 0 {
		t.Fatal("no queries completed during the swap storm")
	}
	if got := e.Epoch(); got != swaps+1 {
		t.Fatalf("final epoch = %d, want %d", got, swaps+1)
	}
}
