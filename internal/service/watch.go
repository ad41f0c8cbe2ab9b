package service

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/reflist"
	"repro/internal/resilience"
)

// Serve runs the server on ln until ctx is cancelled, then shuts down
// gracefully: the listener closes, in-flight requests get drainTimeout
// to finish on the state they loaded, and only then does Serve return.
// A hot-swap service that dropped requests on redeploy would defeat
// the point of epoch-versioned state.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	httpSrv := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		s.logf("shutting down: draining in-flight requests")
		sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			return err
		}
		err := <-errc
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

const drainTimeout = 10 * time.Second

// WatchConfig parameterizes WatchSnapshot.
type WatchConfig struct {
	// Path is the snapshot file to poll.
	Path string
	// Interval is the poll period; <= 0 means 2s.
	Interval time.Duration
	// Loaded is the mtime of the artifact the engine currently serves,
	// captured BEFORE it was read: an artifact renamed into place
	// between that load and the watcher's first poll then shows a
	// different mtime and is picked up on the first tick, instead of
	// being permanently mistaken for the already-served one. Zero falls
	// back to stat-at-start (callers that built their engine some other
	// way).
	Loaded time.Time
	// OverrideRefs, when non-empty, pins the reference list: each new
	// artifact contributes its homoglyph database, and the detector is
	// rebuilt over it from these references, passed to reflist.Resolve
	// as inline references — the serve-time `-refs` override must
	// survive snapshot rollovers, not silently give way to the
	// artifact's embedded set on the first nightly recompile.
	OverrideRefs []string
}

// WatchSnapshot polls the snapshot's modification time every interval
// and, when it changes, loads the artifact and swaps the new state in
// — the `serve -watch` auto-reload: a cron job (or PR-2's `shamfinder
// compile`) atomically renames a fresh snapshot into place, and the
// running server picks it up within one interval, no restart, no
// dropped query. Artifacts that fail to load (truncated copy,
// checksum mismatch), and — absent OverrideRefs — artifacts without
// an embedded detector, are logged and skipped: the engine keeps
// serving its current epoch; a bad artifact must never take down the
// service. Returns when ctx is done.
//
// Polling by mtime is deliberate: it needs no platform notification
// API, and the snapshot writer's atomic rename guarantees the file is
// complete whenever its mtime moves.
func (s *Server) WatchSnapshot(ctx context.Context, cfg WatchConfig) {
	interval := cfg.Interval
	if interval <= 0 {
		interval = 2 * time.Second
	}
	last := cfg.Loaded
	if last.IsZero() {
		if st, err := os.Stat(cfg.Path); err == nil {
			last = st.ModTime()
		}
	}
	// Stat failures widen the poll with jittered backoff instead of
	// silently ticking forever: a poll loop that swallows every error is
	// indistinguishable from one that works, right up until the nightly
	// snapshot quietly stops arriving. Equal jitter keeps a floor under
	// the cadence so a broken path cannot turn into a stat busy-loop.
	backoff := resilience.Backoff{Base: interval, Max: 16 * interval, Jitter: resilience.JitterEqual}
	s.logf("watch: polling %s every %v", cfg.Path, interval)
	failStreak := 0
	for {
		delay := interval
		if failStreak > 0 {
			delay = backoff.Delay(failStreak - 1)
		}
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		st, err := os.Stat(cfg.Path)
		if err != nil {
			// One transient miss is normal (the writer may be mid-rename);
			// a streak is an outage. Log the first failure of each streak
			// and count every one in /metrics.
			s.met.watchErrors.Add(1)
			if failStreak == 0 {
				s.logf("watch: stat %s: %v (keeping epoch %d, retrying with backoff)", cfg.Path, err, s.engine.Epoch())
			}
			failStreak++
			continue
		}
		if failStreak > 0 {
			s.logf("watch: %s visible again after %d failed polls", cfg.Path, failStreak)
			failStreak = 0
		}
		if mt := st.ModTime(); !mt.Equal(last) {
			last = mt
			// Stat succeeded, so the path is set and Resolve never asks
			// for a fresh DB.
			res, err := reflist.Resolve(cfg.Path, "", cfg.OverrideRefs, nil, true)
			if err != nil {
				s.logf("watch: reloading %s failed, keeping epoch %d: %v", cfg.Path, s.engine.Epoch(), err)
				continue
			}
			epoch := s.engine.Swap(res.Detector)
			s.noteSwap()
			s.logf("watch: %s changed, swapped to epoch %d (%d references)", cfg.Path, epoch, res.Detector.NumReferences())
		}
	}
}
