// Package experiments regenerates every table and figure of the
// paper's evaluation. Each experiment function returns a
// report.Experiment holding the measured output next to the paper's
// published numbers; cmd/experiments renders them into EXPERIMENTS.md
// and the root bench_test.go wraps each one in a testing.B benchmark.
package experiments

import (
	"fmt"
	"sync"

	"repro/internal/blacklist"
	"repro/internal/confusables"
	"repro/internal/fontgen"
	"repro/internal/hexfont"
	"repro/internal/homoglyph"
	"repro/internal/ranking"
	"repro/internal/registry"
	"repro/internal/simchar"
	"repro/internal/ucd"
)

// Options configures the experiment environment.
type Options struct {
	// Seed drives every stochastic choice: the reference ranking, the
	// synthetic registry and the blacklist feeds. The default 7 is also
	// the default seed of cmd/zonegen and perfbench, and the seed the
	// package tests pin their counts at (for example at least 3,280
	// union detections in Table 8).
	Seed uint64
	// Scale is the benign-corpus scale for the registry (paper =
	// 1.0). Zero means 0.002 (≈282k domains), which keeps the full
	// pipeline under a minute.
	Scale float64
	// FastFont skips CJK and Hangul generation. Tables 1/2/4 need
	// the full font to reproduce the paper's block counts; the
	// network-facing experiments do not.
	FastFont bool
	// RefCount is the reference-list size. Zero means 10,000 (the
	// paper's Alexa top-10k of .com).
	RefCount int
}

func (o Options) fill() Options {
	if o.Seed == 0 {
		o.Seed = 7
	}
	if o.Scale == 0 {
		o.Scale = 0.002
	}
	if o.RefCount == 0 {
		o.RefCount = 10000
	}
	return o
}

// Env lazily builds and caches the expensive shared fixtures: the
// synthetic font, the SimChar/UC databases, the reference ranking and
// the synthetic registry.
type Env struct {
	Opt Options

	fontOnce sync.Once
	font     *hexfont.Font

	dbOnce sync.Once
	db     *homoglyph.DB
	simTim simchar.Timings

	refsOnce sync.Once
	refs     *ranking.List

	regOnce sync.Once
	reg     *registry.Registry
	regErr  error

	blOnce sync.Once
	bl     *blacklist.Set
}

// NewEnv returns an environment over opt.
func NewEnv(opt Options) *Env {
	return &Env{Opt: opt.fill()}
}

// Font returns the shared synthetic font.
func (e *Env) Font() *hexfont.Font {
	e.fontOnce.Do(func() {
		if e.Opt.FastFont {
			e.font = fontgen.Generate(fontgen.Options{SkipCJK: true, SkipHangul: true})
		} else {
			e.font = fontgen.Full()
		}
	})
	return e.font
}

// DB returns the shared UC ∪ SimChar homoglyph database.
func (e *Env) DB() *homoglyph.DB {
	e.dbOnce.Do(func() {
		sim, tim := simchar.Build(e.Font(), ucd.IDNASet(), simchar.Options{})
		e.simTim = tim
		e.db = homoglyph.New(confusables.Default(), sim, 0)
	})
	return e.db
}

// SimCharTimings reports the build timings of the shared database.
func (e *Env) SimCharTimings() simchar.Timings {
	e.DB()
	return e.simTim
}

// Refs returns the shared reference ranking.
func (e *Env) Refs() *ranking.List {
	e.refsOnce.Do(func() {
		e.refs = ranking.Generate(e.Opt.RefCount, e.Opt.Seed, ranking.PaperAnchors())
	})
	return e.refs
}

// Registry returns the shared synthetic registry.
func (e *Env) Registry() (*registry.Registry, error) {
	e.regOnce.Do(func() {
		e.reg, e.regErr = registry.Generate(registry.Options{
			Seed:  e.Opt.Seed,
			Scale: e.Opt.Scale,
			Refs:  e.Refs(),
			DB:    e.DB(),
		})
	})
	if e.regErr != nil {
		return nil, fmt.Errorf("experiments: building registry: %w", e.regErr)
	}
	return e.reg, nil
}

// Blacklists returns the shared feeds.
func (e *Env) Blacklists() (*blacklist.Set, error) {
	reg, err := e.Registry()
	if err != nil {
		return nil, err
	}
	e.blOnce.Do(func() {
		e.bl = blacklist.FromRegistry(reg, blacklist.DefaultFiller(), e.Opt.Seed)
	})
	return e.bl, nil
}
