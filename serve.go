package shamfinder

import (
	"context"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/homoglyph"
	"repro/internal/jobstore"
	"repro/internal/reflist"
	"repro/internal/service"
)

// Engine is the hot-swappable serving engine: it holds the current
// (immutable) Detector behind an atomic pointer and replaces it
// wholesale — epoch-versioned, with in-flight queries finishing on the
// state they started with. It is the long-running counterpart to
// NewDetector's build-once model: reference lists and snapshots change
// daily in the paper's operational pipeline, and an Engine absorbs
// those updates with one pointer swap instead of a process restart.
type Engine struct {
	inner *core.Engine
}

// NewEngine builds a detector over references and wraps it as epoch 1
// of a hot-swappable engine.
func (f *Framework) NewEngine(references []string) *Engine {
	return &Engine{inner: core.NewEngine(core.NewDetector(f.db, references))}
}

// EngineFor wraps an already-built detector (for example one embedded
// in a loaded snapshot) as epoch 1 of an engine.
func EngineFor(det *Detector) *Engine {
	return &Engine{inner: core.NewEngine(det.inner)}
}

// Epoch returns the engine's current state version. Epochs start at 1
// and advance by exactly one per swap.
func (e *Engine) Epoch() uint64 { return e.inner.Epoch() }

// Detector returns the current frozen detector. It stays valid (for
// its epoch) even after a later swap, so a query takes it once and runs
// every detection on it.
func (e *Engine) Detector() *Detector { return &Detector{inner: e.inner.Detector()} }

// Swap installs det as the new serving state and returns its epoch.
// Queries already running finish on the previous state; new queries
// observe det.
func (e *Engine) Swap(det *Detector) uint64 { return e.inner.Swap(det.inner) }

// Rebuild compiles a fresh detector for references off the engine's
// homoglyph database — on the calling goroutine, while queries
// continue on the old state — then swaps it in, returning the new
// epoch.
func (e *Engine) Rebuild(references []string) uint64 { return e.inner.Rebuild(references) }

// ServeOptions configures Serve.
type ServeOptions struct {
	// Addr is the listen address; empty means "127.0.0.1:8080".
	Addr string
	// SnapshotPath cold-starts the engine from a compiled snapshot
	// (milliseconds) instead of building the font + SimChar + UC
	// pipeline. Its embedded detector serves only when neither
	// RefsPath nor References names a list; a snapshot without one
	// then fails. The rule is internal/reflist.Resolve, shared by the
	// CLI and /v1/reload.
	SnapshotPath string
	// RefsPath loads the reference list (plain list or rank CSV) the
	// detector protects. It wins over References and over a
	// snapshot's embedded detector; a list that reduces to no labels
	// is an error.
	RefsPath string
	// References is an inline reference list, reduced like file lines;
	// used when RefsPath is empty.
	References []string
	// Watch > 0 polls SnapshotPath's mtime at that interval and
	// hot-swaps the engine when the file changes — zero-downtime
	// artifact rollover from a compile cron.
	Watch time.Duration
	// Build configures the framework build when SnapshotPath is empty.
	Build Config
	// MaxInFlight bounds concurrently served detection requests;
	// overload sheds with 503. 0 means the service default.
	MaxInFlight int
	// Backend is the default detection backend for requests that do not
	// name one. The zero value means BackendPostings.
	Backend Backend
	// JobDir, when non-empty, makes /v1/survey jobs durable: each job's
	// manifest and record log live under this directory, and jobs a
	// crash interrupted resume on startup with byte-identical output.
	JobDir string
	// SurveyTTL evicts finished survey jobs (memory and JobDir) this
	// long after they finish; 0 disables the TTL (the finished-jobs cap
	// still bounds retention).
	SurveyTTL time.Duration
	// SurveyKeep bounds retained finished survey jobs (0 = default 32).
	SurveyKeep int
	// SurveyStall is the per-job watchdog: a survey whose pipeline
	// counters freeze this long is cancelled and marked failed
	// (retryable). 0 disables the watchdog.
	SurveyStall time.Duration
	// Logf receives operational log lines; nil means silent.
	Logf func(format string, args ...any)
	// OnListen, when non-nil, is called with the bound address before
	// serving — the hook tests (and port-0 callers) learn the actual
	// port through.
	OnListen func(addr net.Addr)
}

// Serve runs the hot-swappable detection service until ctx is
// cancelled: engine construction (snapshot load or full build), the
// HTTP API of internal/service (POST /v1/detect, GET /v1/explain,
// POST /v1/reload, GET /healthz, GET /metrics), optional snapshot
// watching, and graceful drain on shutdown. It replaces the
// build-detect-exit CLI cycle for deployments that need detection to
// stay up while reference lists and zone snapshots change underneath
// it.
func Serve(ctx context.Context, opt ServeOptions) error {
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	// Capture the snapshot's mtime BEFORE loading it: if a compile cron
	// renames a fresh artifact into place during the load, the watcher's
	// baseline is older than the file and the first poll picks it up —
	// never the other way around (a newer-baseline race would serve a
	// stale detector until the next artifact landed).
	var snapMtime time.Time
	if opt.SnapshotPath != "" {
		if st, err := os.Stat(opt.SnapshotPath); err == nil {
			snapMtime = st.ModTime()
		}
	}
	engine, refs, err := buildEngine(opt, logf)
	if err != nil {
		return err
	}
	surveyCfg := service.SurveyConfig{
		JobTTL:       opt.SurveyTTL,
		KeepFinished: opt.SurveyKeep,
		StallTimeout: opt.SurveyStall,
	}
	if opt.JobDir != "" {
		store, err := jobstore.Open(opt.JobDir)
		if err != nil {
			return fmt.Errorf("shamfinder: job dir: %w", err)
		}
		surveyCfg.Store = store
	}
	srv := service.New(service.Config{
		Engine:      engine.inner,
		MaxInFlight: opt.MaxInFlight,
		Backend:     opt.Backend,
		Survey:      surveyCfg,
		Logf:        logf,
	})
	// Resume whatever a previous process left behind BEFORE serving
	// traffic: interrupted jobs relaunch (bounded by the running cap),
	// finished ones republish, corrupt manifests quarantine loudly.
	if err := srv.RecoverSurveys(); err != nil {
		return fmt.Errorf("shamfinder: recovering survey jobs: %w", err)
	}
	addr := opt.Addr
	if addr == "" {
		addr = "127.0.0.1:8080"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("shamfinder: listening on %s: %w", addr, err)
	}
	if opt.OnListen != nil {
		opt.OnListen(ln.Addr())
	}
	det := engine.Detector()
	logf("serving on %s: epoch %d, %d references", ln.Addr(), engine.Epoch(), det.inner.NumReferences())
	if opt.Watch > 0 && opt.SnapshotPath != "" {
		// With an explicit reference list, the list is pinned across
		// artifact rollovers: each new snapshot contributes its homoglyph
		// DB and the watcher rebuilds the detector over it from these
		// refs — a nightly recompile must never silently replace the
		// operator's list with the artifact's embedded one.
		go srv.WatchSnapshot(ctx, service.WatchConfig{
			Path:         opt.SnapshotPath,
			Interval:     opt.Watch,
			Loaded:       snapMtime,
			OverrideRefs: refs,
		})
	}
	return srv.Serve(ctx, ln)
}

// buildEngine resolves the serving engine through reflist.Resolve,
// building the framework from opt.Build when no snapshot is named. It
// also returns the named reference list (nil when the snapshot's
// embedded detector serves) so the snapshot watcher can pin it across
// artifact rollovers.
func buildEngine(opt ServeOptions, logf func(string, ...any)) (*Engine, []string, error) {
	start := time.Now()
	res, err := reflist.Resolve(opt.SnapshotPath, opt.RefsPath, opt.References, func() (*homoglyph.DB, error) {
		buildStart := time.Now()
		fw, err := New(opt.Build)
		if err != nil {
			return nil, err
		}
		logf("built framework in %v", time.Since(buildStart).Round(time.Millisecond))
		return fw.db, nil
	}, true)
	if err != nil {
		return nil, nil, fmt.Errorf("shamfinder: %w", err)
	}
	if opt.SnapshotPath != "" {
		logf("cold start from %s in %v", opt.SnapshotPath, time.Since(start).Round(time.Millisecond))
	}
	return EngineFor(&Detector{inner: res.Detector}), res.Refs, nil
}
