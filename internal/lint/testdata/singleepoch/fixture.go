// Package singleepoch is a shamlint fixture: request paths that
// consult the engine more than once.
package singleepoch

type Detector struct{ refs int }

func (d *Detector) DetectBytes(b []byte) int { return d.refs + len(b) }

type Engine struct{ det *Detector }

func (e *Engine) Current() (*Detector, uint64) { return e.det, 1 }
func (e *Engine) Detector() *Detector          { return e.det }

// handleOnce is the contract: one Current(), everything else on the
// pinned detector.
func handleOnce(e *Engine, reqs [][]byte) int {
	det, _ := e.Current()
	total := 0
	for _, r := range reqs {
		total += det.DetectBytes(r)
	}
	return total
}

func handleTwice(e *Engine, a, b []byte) int {
	x, _ := e.Current()
	y, _ := e.Current() // want single-epoch "engine consulted 2 times"
	return x.DetectBytes(a) + y.DetectBytes(b)
}

func handleDetectorTwice(e *Engine, a, b []byte) int {
	x := e.Detector().DetectBytes(a)
	y := e.Detector().DetectBytes(b) // want single-epoch "engine consulted 2 times"
	return x + y
}

func handleInLoop(e *Engine, reqs [][]byte) int {
	total := 0
	for _, r := range reqs {
		total += e.Detector().DetectBytes(r) // want single-epoch "inside a loop"
	}
	return total
}

func handleAllowed(e *Engine, a []byte) (int, uint64) {
	_, epoch := e.Current()
	//shamlint:allow single-epoch fixture: second read is a freshness probe, not part of the answer
	n := e.Detector().DetectBytes(a)
	return n, epoch
}
