package zonewatch

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/snapshot"
	"repro/internal/triage"
)

// SurveyBatcher turns the zone watcher's deltas journal into survey
// jobs: it tails the journal, accumulates the detected homographs, and
// cuts a survey submission whenever the batch grows big enough or old
// enough. Each submission names the exact journal byte span it covers,
// which the job store records in the job's manifest — so a restarted
// watcher asks the store how far coverage reaches and resumes tailing
// from there: no delta is ever surveyed twice, none is orphaned. Spans
// between submissions that carried no detected names are re-read
// harmlessly on restart (they produce no inputs).
//
// The batcher tolerates the watcher's own crash recovery: a resumed
// scan truncates the journal to its checkpoint offset and re-emits the
// dropped lines byte-identically, so a journal momentarily shorter
// than the cursor means "wait", never "error".
type SurveyBatcherConfig struct {
	// JournalPath is the deltas journal to tail (required).
	JournalPath string
	// Submit cuts one survey job over inputs covering journal bytes
	// [from, to); queried counts the delta lines consumed (required).
	// An error keeps the batch pending for the next tick.
	Submit func(inputs []triage.Input, queried int, from, to int64) (string, error)

	// MaxBatch cuts a batch at this many detected inputs (default 256).
	MaxBatch int
	// MaxAge cuts a non-empty batch this long after its first input
	// arrived, so a quiet zone still surveys its stragglers promptly
	// (default 30s).
	MaxAge time.Duration
	// Interval is the journal polling cadence (default 2s).
	Interval time.Duration
	// Cursor is the restart position — the furthest journal offset any
	// existing job manifest covers (jobstore.MaxJournalTo).
	Cursor int64
	// DeadLetterPath, when set, is replayed into the next cut: items a
	// one-shot DrainProbes abandoned are merged (deduped) into the next
	// batch and the file is truncated after a successful submission.
	DeadLetterPath string
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// SurveyBatcher tails one deltas journal. Run is not safe for
// concurrent calls; Lag and the counters are safe from any goroutine.
type SurveyBatcher struct {
	cfg SurveyBatcherConfig

	mu           sync.Mutex
	cursor       int64 // next unread journal byte
	spanStart    int64 // start of the span the pending batch covers
	pending      []triage.Input
	pendingFQDNs map[string]bool
	pendingLines int
	firstAt      time.Time

	batches      atomic.Uint64
	inputsTotal  atomic.Uint64
	submitErrors atomic.Uint64
	pollErrors   atomic.Uint64
	coveredTo    atomic.Int64
	journalSize  atomic.Int64
}

// NewSurveyBatcher validates cfg.
func NewSurveyBatcher(cfg SurveyBatcherConfig) (*SurveyBatcher, error) {
	if cfg.JournalPath == "" {
		return nil, errors.New("zonewatch: batcher JournalPath required")
	}
	if cfg.Submit == nil {
		return nil, errors.New("zonewatch: batcher Submit required")
	}
	b := &SurveyBatcher{cfg: cfg, cursor: cfg.Cursor, spanStart: cfg.Cursor}
	b.coveredTo.Store(cfg.Cursor)
	return b, nil
}

func (b *SurveyBatcher) maxBatch() int {
	if b.cfg.MaxBatch > 0 {
		return b.cfg.MaxBatch
	}
	return 256
}

func (b *SurveyBatcher) maxAge() time.Duration {
	if b.cfg.MaxAge > 0 {
		return b.cfg.MaxAge
	}
	return 30 * time.Second
}

func (b *SurveyBatcher) interval() time.Duration {
	if b.cfg.Interval > 0 {
		return b.cfg.Interval
	}
	return 2 * time.Second
}

func (b *SurveyBatcher) logf(format string, args ...any) {
	if b.cfg.Logf != nil {
		b.cfg.Logf(format, args...)
	}
}

// Lag reports how many journal bytes no submitted survey job covers
// yet — the /metrics ingestion-lag gauge. Safe from any goroutine.
func (b *SurveyBatcher) Lag() int64 {
	lag := b.journalSize.Load() - b.coveredTo.Load()
	if lag < 0 {
		// The watcher truncated the journal for a checkpoint resume; the
		// missing bytes are about to be rewritten identically.
		return 0
	}
	return lag
}

// Batches returns how many survey jobs this batcher has cut.
func (b *SurveyBatcher) Batches() uint64 { return b.batches.Load() }

// Run tails the journal until ctx is cancelled, cutting batches at the
// size/age thresholds. On the way out it makes one final attempt to
// cut whatever is pending, so a graceful shutdown strands nothing.
func (b *SurveyBatcher) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			b.finalCut()
			return err
		}
		b.Tick(ctx)
		if err := sleepCtx(ctx, b.interval()); err != nil {
			b.finalCut()
			return err
		}
	}
}

// Tick is one poll-and-maybe-cut step, exposed for one-shot use
// (`watch-zone -once`) and tests.
func (b *SurveyBatcher) Tick(ctx context.Context) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.pollLocked(); err != nil {
		b.pollErrors.Add(1)
		b.logf("zonewatch: batcher poll: %v", err)
	}
	if len(b.pending) == 0 && b.deadLetterEmpty() {
		return
	}
	if len(b.pending) >= b.maxBatch() ||
		(len(b.pending) > 0 && time.Since(b.firstAt) >= b.maxAge()) ||
		(len(b.pending) == 0 && !b.deadLetterEmpty()) {
		b.cutLocked()
	}
}

// Flush cuts any pending batch immediately, regardless of thresholds.
func (b *SurveyBatcher) Flush() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.pending) > 0 || !b.deadLetterEmpty() || b.cursor > b.spanStart {
		b.cutLocked()
	}
}

func (b *SurveyBatcher) finalCut() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.pending) > 0 || !b.deadLetterEmpty() {
		b.cutLocked()
	}
}

// pollLocked reads every complete journal line in [cursor, EOF) into
// the pending batch.
func (b *SurveyBatcher) pollLocked() error {
	f, err := os.Open(b.cfg.JournalPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // the watcher has not emitted anything yet
		}
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	size := fi.Size()
	b.journalSize.Store(size)
	if size <= b.cursor {
		// Shorter than the cursor: the watcher is mid checkpoint-resume,
		// truncating and byte-identically rewriting. Equal: nothing new.
		return nil
	}
	end, err := snapshot.CompleteLineEnd(f, b.cursor, size)
	if err != nil {
		return err
	}
	if end <= b.cursor {
		return nil
	}
	r := bufio.NewReaderSize(io.NewSectionReader(f, b.cursor, end-b.cursor), 1<<16)
	for {
		line, err := r.ReadBytes('\n')
		if len(bytes.TrimRight(line, "\r\n")) > 0 {
			b.pendingLines++
			if in, detected := parseDeltaLine(line); detected {
				b.addPending(in)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	b.cursor = end
	return nil
}

func (b *SurveyBatcher) addPending(in triage.Input) {
	if b.pendingFQDNs == nil {
		b.pendingFQDNs = make(map[string]bool)
	}
	if b.pendingFQDNs[in.FQDN] {
		return
	}
	b.pendingFQDNs[in.FQDN] = true
	if len(b.pending) == 0 {
		b.firstAt = time.Now()
	}
	b.pending = append(b.pending, in)
}

// cutLocked submits the pending batch — dead-letter replays merged in
// front — covering journal bytes [spanStart, cursor). On success the
// span advances; on error everything stays pending for the next tick.
func (b *SurveyBatcher) cutLocked() {
	dead, haveDL := b.readDeadLetter()
	inputs := make([]triage.Input, 0, len(dead)+len(b.pending))
	seen := make(map[string]bool, len(dead)+len(b.pending))
	for _, in := range append(dead, b.pending...) {
		if !seen[in.FQDN] {
			seen[in.FQDN] = true
			inputs = append(inputs, in)
		}
	}
	if len(inputs) == 0 {
		// A span of purely non-detected deltas: nothing to survey, and no
		// manifest will cover it. A restart re-reads it harmlessly.
		b.resetPendingLocked()
		return
	}
	queried := b.pendingLines + len(dead)
	id, err := b.cfg.Submit(inputs, queried, b.spanStart, b.cursor)
	if err != nil {
		b.submitErrors.Add(1)
		b.logf("zonewatch: batch submit failed (kept pending): %v", err)
		return
	}
	b.batches.Add(1)
	b.inputsTotal.Add(uint64(len(inputs)))
	b.coveredTo.Store(b.cursor)
	b.logf("zonewatch: batch %s: %d homographs over journal [%d,%d) (%d retried)",
		id, len(inputs), b.spanStart, b.cursor, len(dead))
	if haveDL {
		if err := os.Truncate(b.cfg.DeadLetterPath, 0); err != nil && !os.IsNotExist(err) {
			b.logf("zonewatch: truncating dead-letter: %v", err)
		}
	}
	b.resetPendingLocked()
}

func (b *SurveyBatcher) resetPendingLocked() {
	b.spanStart = b.cursor
	b.pending = nil
	b.pendingFQDNs = nil
	b.pendingLines = 0
}

func (b *SurveyBatcher) deadLetterEmpty() bool {
	if b.cfg.DeadLetterPath == "" {
		return true
	}
	fi, err := os.Stat(b.cfg.DeadLetterPath)
	return err != nil || fi.Size() == 0
}

// readDeadLetter loads abandoned probe items for replay. The file is
// truncated only after the batch that carries them lands.
func (b *SurveyBatcher) readDeadLetter() ([]triage.Input, bool) {
	if b.cfg.DeadLetterPath == "" {
		return nil, false
	}
	data, err := os.ReadFile(b.cfg.DeadLetterPath)
	if err != nil || len(data) == 0 {
		return nil, false
	}
	var out []triage.Input
	for _, line := range bytes.Split(data, []byte("\n")) {
		if in, ok := parseMatchLine(line); ok {
			out = append(out, in)
		}
	}
	return out, true
}

// parseDeltaLine decodes one journal line. Only detected lines (fqdn
// TAB imitated TAB source) yield an input; bare additions are zone
// noise the surveys skip.
func parseDeltaLine(line []byte) (triage.Input, bool) {
	fields := bytes.Split(bytes.TrimRight(line, "\r\n"), []byte("\t"))
	if len(fields) < 3 || len(fields[0]) == 0 {
		return triage.Input{}, false
	}
	return triage.Input{
		FQDN:      string(fields[0]),
		Reference: string(fields[1]),
		Source:    string(fields[2]),
	}, true
}

// parseMatchLine decodes a dead-letter (match-file format) line: a
// bare FQDN or the full three-field form.
func parseMatchLine(line []byte) (triage.Input, bool) {
	fields := bytes.Split(bytes.TrimRight(line, "\r\n"), []byte("\t"))
	if len(fields) == 0 || len(fields[0]) == 0 {
		return triage.Input{}, false
	}
	in := triage.Input{FQDN: string(fields[0])}
	if len(fields) >= 3 {
		in.Reference, in.Source = string(fields[1]), string(fields[2])
	}
	return in, true
}

// appendDeadLetter records one abandoned probe item for a later batch
// to retry, in the match-file format the batcher replays. The append
// is fsynced and the Close error checked: a dead letter that never
// reached disk is a probe silently lost, the exact failure this file
// exists to prevent.
func appendDeadLetter(path string, in triage.Input) (retErr error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()
	if in.Reference == "" && in.Source == "" {
		_, err = fmt.Fprintf(f, "%s\n", in.FQDN)
	} else {
		_, err = fmt.Fprintf(f, "%s\t%s\t%s\n", in.FQDN, in.Reference, in.Source)
	}
	if err != nil {
		return err
	}
	return f.Sync()
}
