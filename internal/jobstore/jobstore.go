// Package jobstore persists survey jobs so the measurement half of the
// monitoring loop survives crashes: every /v1/survey job lives on disk
// as a directory holding a CRC'd manifest (the job's spec, inputs and
// state machine) plus the triage JSONL record log (the same checkpoint
// format the survey CLI's -resume rides). A SIGKILL at any point leaves
// a state the next process resumes byte-identically: the manifest is
// written through the snapshot layer's atomic temp-file + fsync +
// rename, the record log is append-only with a torn-tail trim on
// resume, and a manifest that fails its checksum is refused loudly and
// quarantined — never silently dropped, never silently trusted.
//
// Layout:
//
//	<dir>/<id>/manifest.job    SHAMJOBM envelope around the Manifest JSON
//	<dir>/<id>/records.jsonl   one triage.Record per completed domain
//	<dir>/quarantine/<id>/     jobs whose manifest failed validation
//
// The state machine:
//
//	accepted ──► running ──► draining ──► done
//	                │            │
//	                └────────────┴─────► failed / cancelled
//
// accepted: manifest durable, pipeline not yet started (or queued for a
// restart slot). running: records are streaming into the log. draining:
// every record is on disk, the final tally is being computed. The three
// terminal states carry the tally (done), the error cause and whether a
// retry could help (failed), or neither (cancelled).
package jobstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/snapshot"
	"repro/internal/triage"
)

// Job states.
const (
	StateAccepted  = "accepted"
	StateRunning   = "running"
	StateDraining  = "draining"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Terminal reports whether state is final — the job will never write
// another record and is eligible for retention eviction.
func Terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// Manifest is one job's durable descriptor.
type Manifest struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Epoch is the engine epoch the detection stage answered from; a
	// resumed job keeps it (inputs are replayed, never re-detected).
	Epoch    uint64 `json:"epoch"`
	Queried  int    `json:"queried"`
	Detected int    `json:"detected"`
	// Spec rebuilds the job's pipeline in a fresh process.
	Spec triage.Spec `json:"spec"`
	// Inputs is the exact post-detection triage input list; replaying it
	// with the record log as a resume set reproduces the job
	// byte-identically.
	Inputs []triage.Input `json:"inputs,omitempty"`

	// JournalPath/From/To record the zone-watch deltas-journal span this
	// job covers, for batcher-submitted jobs: on watcher restart the
	// batch cursor restarts after max(To) over all manifests, so no
	// delta is ever surveyed twice and none is orphaned.
	JournalPath string `json:"journal_path,omitempty"`
	JournalFrom int64  `json:"journal_from,omitempty"`
	JournalTo   int64  `json:"journal_to,omitempty"`

	// Error and Retryable describe a failed job: Retryable marks causes
	// a re-submission could clear (a stalled stage, a dead resolver) as
	// opposed to wrong input.
	Error     string `json:"error,omitempty"`
	Retryable bool   `json:"retryable,omitempty"`
	// Tally is the final §6 aggregation, present once terminal.
	Tally *triage.Tally `json:"tally,omitempty"`

	// Resumes counts how many process restarts have resumed this job.
	Resumes int `json:"resumes,omitempty"`

	CreatedUnix int64 `json:"created_unix"`
	UpdatedUnix int64 `json:"updated_unix"`
}

// ManifestMagic identifies a job-manifest envelope.
const ManifestMagic = "SHAMJOBM"

// ManifestVersion is the current manifest format version.
const ManifestVersion = 1

const (
	manifestName = "manifest.job"
	recordsName  = "records.jsonl"
	quarantine   = "quarantine"
)

// MarshalManifest seals the manifest JSON in the SHAMJOBM envelope.
func MarshalManifest(m Manifest) ([]byte, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("jobstore: encoding manifest %s: %w", m.ID, err)
	}
	return snapshot.SealEnvelope(ManifestMagic, ManifestVersion, payload), nil
}

// UnmarshalManifest opens and decodes a manifest. Any corruption — a
// bad checksum, truncation, malformed JSON, an unknown state — is an
// error; the caller quarantines, never guesses.
func UnmarshalManifest(data []byte) (Manifest, error) {
	var m Manifest
	payload, err := snapshot.OpenEnvelope(data, ManifestMagic, ManifestVersion)
	if err != nil {
		return m, fmt.Errorf("jobstore: %w", err)
	}
	if err := json.Unmarshal(payload, &m); err != nil {
		return m, fmt.Errorf("jobstore: decoding manifest: %w", err)
	}
	switch m.State {
	case StateAccepted, StateRunning, StateDraining, StateDone, StateFailed, StateCancelled:
	default:
		return m, fmt.Errorf("jobstore: manifest %s in unknown state %q", m.ID, m.State)
	}
	if m.ID == "" {
		return m, fmt.Errorf("jobstore: manifest without an id")
	}
	return m, nil
}

// Store is a directory of durable survey jobs. All methods are safe for
// concurrent use; one Store owns its directory.
type Store struct {
	dir string

	mu   sync.Mutex
	seq  int                 // high-water mark of numeric id suffixes
	jobs map[string]Manifest // last persisted manifest per live job
}

// Open prepares dir (created if missing) and indexes the numeric id
// space so NewID never reuses an id — not even one belonging to a
// quarantined or just-evicted job, whose records a client may still be
// asking about.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("jobstore: dir required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	s := &Store{dir: dir, jobs: make(map[string]Manifest)}
	bump := func(name string) {
		if n, err := strconv.Atoi(strings.TrimPrefix(name, "j")); err == nil && strings.HasPrefix(name, "j") && n > s.seq {
			s.seq = n
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	for _, e := range entries {
		bump(e.Name())
	}
	if qs, err := os.ReadDir(filepath.Join(dir, quarantine)); err == nil {
		for _, e := range qs {
			bump(strings.SplitN(e.Name(), ".", 2)[0])
		}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// NewID allocates the next job id ("j1", "j2", ...).
func (s *Store) NewID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	return "j" + strconv.Itoa(s.seq)
}

func (s *Store) jobDir(id string) string       { return filepath.Join(s.dir, id) }
func (s *Store) manifestPath(id string) string { return filepath.Join(s.dir, id, manifestName) }

// RecordsPath is where id's JSONL record log lives.
func (s *Store) RecordsPath(id string) string { return filepath.Join(s.dir, id, recordsName) }

// Put durably persists m (creating the job directory on first write)
// and stamps UpdatedUnix. Atomic: a crash mid-Put leaves the previous
// manifest intact.
func (s *Store) Put(m Manifest) error {
	if m.ID == "" {
		return fmt.Errorf("jobstore: manifest without an id")
	}
	//shamlint:allow determinism UpdatedUnix is operational metadata on the manifest, never replayed into record bytes
	m.UpdatedUnix = time.Now().Unix()
	if m.CreatedUnix == 0 {
		m.CreatedUnix = m.UpdatedUnix
	}
	data, err := MarshalManifest(m)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(s.jobDir(m.ID), 0o755); err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if err := snapshot.WriteFileAtomic(s.manifestPath(m.ID), data); err != nil {
		return fmt.Errorf("jobstore: writing manifest %s: %w", m.ID, err)
	}
	s.mu.Lock()
	s.jobs[m.ID] = m
	s.mu.Unlock()
	return nil
}

// Get returns the last persisted manifest for id.
func (s *Store) Get(id string) (Manifest, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.jobs[id]
	return m, ok
}

// List returns every live manifest, ordered by id sequence (creation
// order).
func (s *Store) List() []Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Manifest, 0, len(s.jobs))
	for _, m := range s.jobs {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return idSeq(out[i].ID) < idSeq(out[j].ID) })
	return out
}

func idSeq(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "j"))
	return n
}

// Remove deletes a job — its manifest, records and directory — for
// explicit DELETE and retention eviction.
func (s *Store) Remove(id string) error {
	s.mu.Lock()
	delete(s.jobs, id)
	s.mu.Unlock()
	return os.RemoveAll(s.jobDir(id))
}

// MaxJournalTo returns the largest journal offset any live job covers
// for journalPath — the batch cursor's restart position. Zero when no
// job covers the journal.
func (s *Store) MaxJournalTo(journalPath string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var max int64
	for _, m := range s.jobs {
		if m.JournalPath == journalPath && m.JournalTo > max {
			max = m.JournalTo
		}
	}
	return max
}

// RecoverResult summarizes a Recover pass.
type RecoverResult struct {
	// Active holds jobs found in a non-terminal state — interrupted by
	// the previous process's death — oldest first. The caller resumes
	// them.
	Active []Manifest
	// Finished holds terminal jobs, oldest first, records still on disk.
	Finished []Manifest
	// Quarantined counts job directories whose manifest failed
	// validation and was moved under quarantine/.
	Quarantined int
}

// Recover scans the store directory, loads every manifest, and
// quarantines the ones that fail validation. It is the restart path:
// call once after Open, then resume Active and republish Finished. A
// quarantined job keeps its directory (manifest and records) under
// quarantine/<id> for the operator — refusing loudly costs a directory
// rename; silently dropping it would cost the job.
func (s *Store) Recover(logf func(format string, args ...any)) (RecoverResult, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var res RecoverResult
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return res, fmt.Errorf("jobstore: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || e.Name() == quarantine {
			continue
		}
		id := e.Name()
		data, err := os.ReadFile(s.manifestPath(id))
		if err == nil {
			var m Manifest
			if m, err = UnmarshalManifest(data); err == nil {
				if m.ID != id {
					err = fmt.Errorf("jobstore: manifest in %s names id %s", id, m.ID)
				} else {
					s.mu.Lock()
					s.jobs[id] = m
					s.mu.Unlock()
					if Terminal(m.State) {
						res.Finished = append(res.Finished, m)
					} else {
						res.Active = append(res.Active, m)
					}
					continue
				}
			}
		}
		logf("jobstore: quarantining job %s: %v", id, err)
		if qerr := s.quarantineJob(id); qerr != nil {
			return res, fmt.Errorf("jobstore: quarantining %s (%v): %w", id, err, qerr)
		}
		res.Quarantined++
	}
	sort.Slice(res.Active, func(i, j int) bool { return idSeq(res.Active[i].ID) < idSeq(res.Active[j].ID) })
	sort.Slice(res.Finished, func(i, j int) bool { return idSeq(res.Finished[i].ID) < idSeq(res.Finished[j].ID) })
	return res, nil
}

// quarantineJob moves a job directory under quarantine/, never
// overwriting an earlier quarantined copy of the same id.
func (s *Store) quarantineJob(id string) error {
	if err := os.MkdirAll(filepath.Join(s.dir, quarantine), 0o755); err != nil {
		return err
	}
	dst := filepath.Join(s.dir, quarantine, id)
	for n := 2; ; n++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(s.dir, quarantine, id+"."+strconv.Itoa(n))
	}
	//shamlint:allow durable-write quarantine is a same-dir atomic directory rename; a crash loses only the label, never record data
	return os.Rename(s.jobDir(id), dst)
}

// PrepareResume readies an interrupted job's record log for replay: the
// torn tail a crash may have left mid-line is truncated away, and the
// surviving complete records come back as the triage resume set. The
// resumed pipeline appends only records not in this set, so the final
// log is byte-identical to an uninterrupted run's.
func (s *Store) PrepareResume(id string) (_ map[string]triage.Record, retErr error) {
	path := s.RecordsPath(id)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]triage.Record{}, nil
		}
		return nil, fmt.Errorf("jobstore: opening record log: %w", err)
	}
	// The log was opened for writing (the trim below): its Close error
	// is a write error and must not be swallowed, or the resumed job
	// would append after a trim that never reached disk.
	defer func() {
		if cerr := f.Close(); cerr != nil && retErr == nil {
			retErr = fmt.Errorf("jobstore: closing record log: %w", cerr)
		}
	}()
	if err := trimTornTail(f); err != nil {
		return nil, err
	}
	return triage.LoadCheckpoint(path)
}

// trimTornTail truncates a partial last record a crash left in the log
// f. A failed read returns its error and leaves the log untouched.
func trimTornTail(f *os.File) error {
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	end, err := snapshot.CompleteLineEnd(f, 0, fi.Size())
	if err != nil {
		return fmt.Errorf("jobstore: reading record log: %w", err)
	}
	if end == fi.Size() {
		return nil
	}
	if err := f.Truncate(end); err != nil {
		return fmt.Errorf("jobstore: trimming torn record: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("jobstore: syncing trimmed record log: %w", err)
	}
	return nil
}

// LoadRecords reads a job's full record log (terminal jobs answering a
// GET after a restart).
func (s *Store) LoadRecords(id string) ([]triage.Record, error) {
	f, err := os.Open(s.RecordsPath(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("jobstore: opening record log: %w", err)
	}
	defer f.Close()
	return triage.ReadRecords(f)
}

// OpenRecordsAppend opens id's record log for appending — the running
// job's streaming checkpoint writer.
func (s *Store) OpenRecordsAppend(id string) (*os.File, error) {
	if err := os.MkdirAll(s.jobDir(id), 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	f, err := os.OpenFile(s.RecordsPath(id), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobstore: opening record log: %w", err)
	}
	return f, nil
}
