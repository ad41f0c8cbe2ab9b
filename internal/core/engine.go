// The serving engine: a hot-swappable holder for the immutable
// Detector. The paper's operational model is a continuously running
// pipeline — zone diffs and reference-list updates arrive daily while
// detection keeps answering — so the compiled detector state must be
// replaceable underneath live queries without a restart. The split is
// deliberate: a *Detector stays a frozen value (built once, never
// mutated, safe to share), and Engine is the one mutable cell that
// points at the current one. Queries load the pointer once and run
// entirely against that state; a swap installs a fresh pointer for
// future queries while in-flight ones finish on the state they
// started with. No locks sit on the query path.
package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/homoglyph"
)

// engineState pairs a frozen detector with the epoch it was installed
// at. The pair travels behind one atomic pointer so a reader can never
// observe a detector from one generation with the epoch of another.
type engineState struct {
	det   *Detector
	epoch uint64
}

// Engine holds the live *Detector behind an atomic pointer and swaps
// it wholesale. Epochs are strictly increasing, starting at 1:
// every swap installs epoch+1, and every query reports the epoch it
// ran against, so callers (and the serving layer's consistency tests)
// can prove an answer came from exactly one generation of state.
//
// The zero Engine is not usable; construct with NewEngine.
type Engine struct {
	state atomic.Pointer[engineState]

	// swapMu serializes writers only: it makes the read-increment-store
	// of the epoch atomic across concurrent Swap/Rebuild callers.
	// Readers never take it.
	swapMu sync.Mutex
}

// NewEngine wraps det as the engine's first state, at epoch 1.
func NewEngine(det *Detector) *Engine {
	if det == nil {
		panic("core: NewEngine with nil detector")
	}
	e := &Engine{}
	e.state.Store(&engineState{det: det, epoch: 1})
	return e
}

// Current returns the live detector and its epoch as one consistent
// pair. The detector is immutable and remains valid (and correct for
// that epoch) even after a later Swap — which is exactly how in-flight
// queries finish on the state they started with. A query, or a batch
// that must answer from one epoch (the HTTP layer's /v1/detect), takes
// Current() once and runs every detection on the returned detector.
func (e *Engine) Current() (*Detector, uint64) {
	s := e.state.Load()
	return s.det, s.epoch
}

// Detector returns the live detector.
func (e *Engine) Detector() *Detector { return e.state.Load().det }

// Epoch returns the current epoch.
func (e *Engine) Epoch() uint64 { return e.state.Load().epoch }

// DB returns the homoglyph database behind the live detector.
func (e *Engine) DB() *homoglyph.DB { return e.state.Load().det.db }

// Swap installs det as the new live state and returns its epoch.
// In-flight queries keep their already-loaded state; queries that
// start after Swap returns observe det (or something newer). det must
// be fully constructed — the engine never publishes partial state.
func (e *Engine) Swap(det *Detector) uint64 {
	if det == nil {
		panic("core: Engine.Swap with nil detector")
	}
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	next := e.state.Load().epoch + 1
	e.state.Store(&engineState{det: det, epoch: next})
	return next
}

// Rebuild compiles a fresh detector for refs off the engine's current
// homoglyph database and swaps it in, returning the new epoch. The
// (comparatively expensive) index compilation happens before the swap
// lock is taken, on the caller's goroutine, while queries continue
// uninterrupted on the old state — so a reference-list update is a
// background build plus one pointer store, never a service pause.
// Concurrent Rebuilds are safe; the last swap wins.
func (e *Engine) Rebuild(refs []string) uint64 {
	det := NewDetector(e.state.Load().det.db, refs)
	return e.Swap(det)
}
