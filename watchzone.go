package shamfinder

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"time"

	"repro/internal/dnsclient"
	"repro/internal/jobstore"
	"repro/internal/service"
	"repro/internal/triage"
	"repro/internal/zonewatch"
)

// WatchZoneOptions configures WatchZone.
type WatchZoneOptions struct {
	// ZonePath is the zone file to watch (required).
	ZonePath string
	// StateDir holds the durable watch state — seen-set, checkpoint —
	// and, by default, the deltas journal (required; created if
	// missing).
	StateDir string
	// DeltasPath overrides the append-only output of added FQDNs.
	// Empty means StateDir/deltas.out.
	DeltasPath string

	// SnapshotPath, RefsPath, References and Build resolve the
	// detection engine exactly as Serve does: snapshot cold-start with
	// an optional explicit reference list overriding the embedded
	// detector, or a full build.
	SnapshotPath string
	RefsPath     string
	References   []string
	Build        Config

	// Interval is the zone polling cadence (0 = the watcher default,
	// 10s).
	Interval time.Duration
	// CheckpointEvery is the number of zone lines between durable
	// checkpoints (0 = default).
	CheckpointEvery int64
	// ThrottleLPS caps scanning at this many zone lines per second;
	// 0 means unthrottled.
	ThrottleLPS int
	// MinZoneFraction is the truncation guard (0 = default, 0.5).
	MinZoneFraction float64

	// Resolver, when non-empty, probes each detected addition for
	// NS/A/MX against this "host:port" DNS server — the paper's §6.1
	// liveness sweep running continuously on the delta stream.
	Resolver string
	// Transport selects the probing transport ("udp", "tcp", "dot" or
	// "doh"; empty = udp). Batched survey jobs inherit it.
	Transport string

	// Addr, when non-empty, also serves the HTTP API on this address;
	// /metrics then carries the watcher's health block alongside the
	// serving counters, and /v1/detect answers off the same engine.
	Addr string
	// OnListen, when non-nil, receives the bound address (port-0
	// callers and tests learn the actual port through it).
	OnListen func(addr net.Addr)

	// SurveyJobDir, when non-empty, closes the paper's monitoring loop:
	// batched journal deltas become durable survey jobs persisted under
	// this directory, each batch recording the journal span it covers so
	// a restart re-submits nothing and orphans nothing. Requires Addr
	// (jobs are observed over the HTTP API) and excludes Once.
	SurveyJobDir string
	// SurveyBatch cuts a survey batch once this many deltas are pending
	// (0 = batcher default).
	SurveyBatch int
	// SurveyAge cuts a smaller pending batch after this long (0 =
	// batcher default).
	SurveyAge time.Duration
	// SurveyStall is the per-job stall watchdog for batched surveys;
	// 0 disables it.
	SurveyStall time.Duration
	// SurveySkipWeb drops the web stage from batched surveys (DNS-only
	// monitoring).
	SurveySkipWeb bool

	// Once runs a single delta scan (draining any queued probes) and
	// returns, instead of polling forever — the cron-shaped mode.
	Once bool

	// Logf receives operational log lines; nil means silent.
	Logf func(format string, args ...any)
}

// WatchZone runs the crash-safe continuous zone watch: it streams each
// new zone generation against the durable seen-set, appends only the
// added FQDNs to the deltas journal (detections annotated with the
// imitated reference), and keeps running — degraded, visibly — through
// missing zones, truncated drops, corrupt state and resolver outages.
// A SIGKILL at any point resumes from the last checkpoint with no
// duplicated and no dropped deltas.
//
// With Once set it performs one scan and returns; otherwise it polls
// until ctx is cancelled (which returns nil — shutdown is not an
// error). With Addr set the HTTP API serves concurrently and its
// /metrics exposes the watcher's health.
func WatchZone(ctx context.Context, opt WatchZoneOptions) error {
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if opt.SurveyJobDir != "" {
		if opt.Addr == "" {
			return fmt.Errorf("shamfinder: survey batching needs Addr — jobs are served and observed over the HTTP API")
		}
		if opt.Once {
			return fmt.Errorf("shamfinder: survey batching needs the long-running mode; Once would exit with jobs mid-flight")
		}
	}
	engine, _, err := buildEngine(ServeOptions{
		SnapshotPath: opt.SnapshotPath,
		RefsPath:     opt.RefsPath,
		References:   opt.References,
		Build:        opt.Build,
	}, logf)
	if err != nil {
		return err
	}

	transport, err := dnsclient.ParseTransport(opt.Transport)
	if err != nil {
		return fmt.Errorf("shamfinder: %w", err)
	}
	var probe func(context.Context, triage.Input) error
	if opt.Resolver != "" {
		client := dnsclient.New(opt.Resolver)
		client.Transport = transport
		defer client.Close()
		probe = func(pctx context.Context, in triage.Input) error {
			return client.ProbeContext(pctx, in.FQDN).Err
		}
	}
	w, err := zonewatch.New(zonewatch.Config{
		ZonePath:        opt.ZonePath,
		StateDir:        opt.StateDir,
		DeltasPath:      opt.DeltasPath,
		Engine:          engine.inner,
		Interval:        opt.Interval,
		CheckpointEvery: opt.CheckpointEvery,
		ThrottleLPS:     opt.ThrottleLPS,
		MinZoneFraction: opt.MinZoneFraction,
		Probe:           probe,
		Logf:            logf,
	})
	if err != nil {
		return err
	}

	if opt.Once {
		stats, err := w.ScanOnce(ctx)
		if err != nil {
			return err
		}
		w.DrainProbes(ctx)
		h := w.Health()
		logf("scan: %d lines, %d candidates, %d added (%d detected); probes %d ok / %d failed",
			stats.Lines, stats.Names, stats.Added, stats.Detected, h.ProbesSubmitted, h.ProbeFailures)
		if stats.UpToDate {
			logf("zone already fully scanned; nothing to do")
		}
		return nil
	}

	// Service mode: the API serves while the watcher polls; either one
	// ending (or ctx) stops the other.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var srvErr chan error
	if opt.Addr != "" {
		surveyCfg := service.SurveyConfig{StallTimeout: opt.SurveyStall}
		if opt.SurveyJobDir != "" {
			store, err := jobstore.Open(opt.SurveyJobDir)
			if err != nil {
				return fmt.Errorf("shamfinder: survey job dir: %w", err)
			}
			surveyCfg.Store = store
		}
		srv := service.New(service.Config{Engine: engine.inner, ZoneWatch: w, Survey: surveyCfg, Logf: logf})
		if surveyCfg.Store != nil {
			// Resume interrupted jobs before the batcher starts tailing:
			// recovery also tells the batcher (via MaxJournalTo) where the
			// last submitted batch's journal span ended, so nothing is
			// re-submitted and nothing between spans is orphaned.
			if err := srv.RecoverSurveys(); err != nil {
				return fmt.Errorf("shamfinder: recovering survey jobs: %w", err)
			}
			journal := opt.DeltasPath
			if journal == "" {
				journal = filepath.Join(opt.StateDir, "deltas.out")
			}
			// Batched jobs re-probe through the same resolver the watcher
			// uses; without one the DNS stage is skipped rather than left
			// to dial a default it was never given.
			spec := triage.Spec{
				Resolver:  opt.Resolver,
				Transport: string(transport),
				SkipDNS:   opt.Resolver == "",
				SkipWeb:   opt.SurveySkipWeb,
			}
			batcher, err := zonewatch.NewSurveyBatcher(zonewatch.SurveyBatcherConfig{
				JournalPath: journal,
				Submit: func(inputs []triage.Input, queried int, from, to int64) (string, error) {
					return srv.SubmitSurvey(spec, inputs, queried, journal, from, to)
				},
				MaxBatch: opt.SurveyBatch,
				MaxAge:   opt.SurveyAge,
				// Batch evaluation tracks the zone polling cadence: deltas
				// can only appear as fast as the watcher scans.
				Interval:       opt.Interval,
				Cursor:         surveyCfg.Store.MaxJournalTo(journal),
				DeadLetterPath: w.DeadLetterPath(),
				Logf:           logf,
			})
			if err != nil {
				return err
			}
			srv.SetJournalLag(batcher.Lag)
			go batcher.Run(ctx)
		}
		ln, err := net.Listen("tcp", opt.Addr)
		if err != nil {
			return fmt.Errorf("shamfinder: listening on %s: %w", opt.Addr, err)
		}
		if opt.OnListen != nil {
			opt.OnListen(ln.Addr())
		}
		logf("serving metrics and detection on %s", ln.Addr())
		srvErr = make(chan error, 1)
		go func() {
			srvErr <- srv.Serve(ctx, ln)
			cancel() // a dead listener must not leave the watcher headless
		}()
	}
	runErr := w.Run(ctx)
	if errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded) {
		runErr = nil
	}
	if srvErr != nil {
		cancel()
		if err := <-srvErr; err != nil && runErr == nil {
			runErr = err
		}
	}
	return runErr
}
