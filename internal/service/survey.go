package service

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/blacklist"
	"repro/internal/jobstore"
	"repro/internal/triage"
	"repro/internal/webclassify"
)

// The async survey job API: POST /v1/survey submits a candidate list,
// the server detects homographs against the current engine epoch and
// pushes the matches through the triage pipeline (DNS → web →
// blacklist) in the background; GET /v1/survey/{id} reports progress
// and, once done, the records and tally; DELETE cancels. With a
// jobstore wired (SurveyConfig.Store / `serve -job-dir`) every job is
// durable: its spec and state machine live in a CRC'd manifest, its
// completed records stream into an append-only JSONL log, and a
// process killed at any point resumes each interrupted job on restart
// with byte-identical output. Without a store, jobs are in-memory and
// live as long as the process — the original serving model.

// SurveyConfig wires the serving layer's triage backends. The zero
// value works: DNS probing uses the resolver named per request, web
// fetches dial the surveyed domain directly, the blacklist stage is
// skipped, and jobs are in-memory only.
type SurveyConfig struct {
	// Resolve overrides how web fetches dial (domain, port) — the
	// simulated-infrastructure hook. Nil dials domain:port.
	Resolve webclassify.Resolver
	// Blacklists enables the blacklist stage.
	Blacklists *blacklist.Set
	// MaxJobs bounds concurrently running surveys; more are rejected
	// with 429 (HTTP) or queued (batcher submissions and restart
	// recovery). 0 means 2.
	MaxJobs int

	// Store, when non-nil, makes every job durable: manifests and
	// record logs live under its directory and interrupted jobs resume
	// on restart (call Server.RecoverSurveys once after New).
	Store *jobstore.Store
	// JobTTL evicts finished jobs (registry and store) this long after
	// they finish. 0 disables the TTL; the KeepFinished cap still
	// applies.
	JobTTL time.Duration
	// KeepFinished bounds how many finished jobs are retained before
	// oldest-first eviction. 0 means 32.
	KeepFinished int
	// StallTimeout is the per-job watchdog: a running job whose
	// pipeline counters stop moving for this long is cancelled and
	// marked failed with a retryable cause. 0 disables the watchdog.
	StallTimeout time.Duration
}

// surveyRequest is a /v1/survey body: the candidates, whether to
// detect first, and the pipeline spec. The spec's Backend selects the
// detection backend for that filter ("postings", "skeleton", "both";
// empty means the server default) and is recorded resolved, so a
// manifest names the backend that actually ran; its Resolver is
// required unless SkipDNS.
type surveyRequest struct {
	FQDNs []string `json:"fqdns"`
	// Detect, default true, filters the candidates through the
	// detection engine first and surveys only the homograph matches.
	// Explicitly false surveys every submitted FQDN.
	Detect *bool `json:"detect,omitempty"`
	triage.Spec
}

// maxSurveyDomains bounds one survey's candidate list.
const maxSurveyDomains = 100000

// surveyUserAgent identifies the serving layer's web fetches.
const surveyUserAgent = "ShamFinder-Survey/1.0"

type surveyAcceptedResp struct {
	ID       string `json:"id"`
	Status   string `json:"status"`
	Epoch    uint64 `json:"epoch"`
	Queried  int    `json:"queried"`
	Detected int    `json:"detected"`
}

type surveyStatus struct {
	ID       string          `json:"id"`
	Status   string          `json:"status"`
	Epoch    uint64          `json:"epoch"`
	Queried  int             `json:"queried"`
	Detected int             `json:"detected"`
	Progress triage.Progress `json:"progress"`
	Error    string          `json:"error,omitempty"`
	// Retryable marks a failed job whose cause a re-submission could
	// clear (a stalled stage, a dead resolver) as opposed to bad input.
	Retryable bool `json:"retryable,omitempty"`
	// Resumes counts process restarts that resumed this job.
	Resumes int             `json:"resumes,omitempty"`
	Records []triage.Record `json:"records,omitempty"`
	Tally   *triage.Tally   `json:"tally,omitempty"`
}

// Job states — the jobstore state machine; the in-memory registry and
// the durable manifests speak the same vocabulary.
const (
	surveyAccepted  = jobstore.StateAccepted
	surveyRunning   = jobstore.StateRunning
	surveyDraining  = jobstore.StateDraining
	surveyDone      = jobstore.StateDone
	surveyFailed    = jobstore.StateFailed
	surveyCancelled = jobstore.StateCancelled
)

type surveyJob struct {
	id       string
	epoch    uint64
	queried  int
	detected int
	spec     triage.Spec
	inputs   []triage.Input
	durable  bool
	// resume marks a job recovered mid-flight: launch prepares its
	// record log (torn-tail trim) and seeds the pipeline's resume set
	// from it.
	resume bool
	// journal* record the zone-watch deltas span this job covers
	// (batcher submissions); zero for direct API jobs.
	journalPath            string
	journalFrom, journalTo int64
	createdUnix            int64

	// closeDNS, set at launch, tears down the job's pooled DNS client
	// (sockets, reader goroutines, TLS sessions) when the run ends; a
	// long-lived serve process must not accrete a connection pool per
	// finished job.
	closeDNS func() error

	mu         sync.Mutex
	status     string
	err        string
	retryable  bool
	resumes    int
	records    []triage.Record
	tally      *triage.Tally
	pipeline   *triage.Pipeline // set at launch; nil while queued
	cancel     func()           // set at launch; nil while queued
	finishedAt time.Time        // set when the job turns terminal
	stalledFor time.Duration    // set by the watchdog before it cancels
	// lazyRecords marks a terminal job recovered from disk whose
	// records were not loaded into memory; GETs read them from the
	// store on demand.
	lazyRecords bool
}

func (j *surveyJob) snapshot(includeRecords bool) surveyStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := surveyStatus{
		ID:        j.id,
		Status:    j.status,
		Epoch:     j.epoch,
		Queried:   j.queried,
		Detected:  j.detected,
		Error:     j.err,
		Retryable: j.retryable,
		Resumes:   j.resumes,
	}
	if j.pipeline != nil {
		st.Progress = j.pipeline.Progress()
	}
	if j.status == surveyDone {
		st.Tally = j.tally
		if includeRecords {
			st.Records = j.records
		}
	}
	return st
}

// manifest assembles the job's durable descriptor for its current
// state. Caller holds j.mu or owns the job exclusively.
func (j *surveyJob) manifestLocked() jobstore.Manifest {
	return jobstore.Manifest{
		ID:          j.id,
		State:       j.status,
		Epoch:       j.epoch,
		Queried:     j.queried,
		Detected:    j.detected,
		Spec:        j.spec,
		Inputs:      j.inputs,
		JournalPath: j.journalPath,
		JournalFrom: j.journalFrom,
		JournalTo:   j.journalTo,
		Error:       j.err,
		Retryable:   j.retryable,
		Tally:       j.tally,
		Resumes:     j.resumes,
		CreatedUnix: j.createdUnix,
	}
}

// keepFinished is the default retention bound on finished jobs: old
// results (and their record sets) are evicted oldest-first so a
// long-lived server's memory — and with a store, its disk — stays flat
// no matter how many surveys it has run.
const keepFinished = 32

type surveyRegistry struct {
	mu      sync.Mutex
	seq     int
	running int
	jobs    map[string]*surveyJob
	order   []string // publication order, for oldest-first eviction
	// pending queues fully-constructed jobs awaiting a running slot:
	// recovered jobs beyond the cap at restart, and batcher submissions
	// arriving while the cap is full. FIFO.
	pending []*surveyJob
	// now is injectable for TTL tests.
	now func() time.Time
}

func (r *surveyRegistry) clock() time.Time {
	if r.now != nil {
		return r.now()
	}
	return time.Now()
}

// tryReserve claims a running-job slot BEFORE any submit-time work
// happens, so a request destined for rejection is shed without paying
// for detection.
func (r *surveyRegistry) tryReserve(maxJobs int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.running >= maxJobs {
		return false
	}
	r.running++
	return true
}

// release returns a reserved slot; when a queued job is waiting it is
// handed the slot instead (the slot count never dips) and returned for
// the caller to launch.
func (r *surveyRegistry) release() *surveyJob {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.pending) > 0 {
		next := r.pending[0]
		r.pending = r.pending[1:]
		return next
	}
	r.running--
	return nil
}

// enqueue parks a published job until a slot frees up.
func (r *surveyRegistry) enqueue(job *surveyJob) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pending = append(r.pending, job)
}

// dequeue removes a queued job (DELETE on an accepted job), reporting
// whether it was still queued.
func (r *surveyRegistry) dequeue(job *surveyJob) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, p := range r.pending {
		if p == job {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return true
		}
	}
	return false
}

func (r *surveyRegistry) nextID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	return "s" + strconv.Itoa(r.seq)
}

// publish makes a fully-constructed job visible and applies retention.
// It returns the evicted jobs so the caller can drop their durable
// state and count them.
func (r *surveyRegistry) publish(job *surveyJob, keep int, ttl time.Duration) []*surveyJob {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.jobs == nil {
		r.jobs = make(map[string]*surveyJob)
	}
	r.jobs[job.id] = job
	r.order = append(r.order, job.id)
	return r.sweepLocked(keep, ttl)
}

// sweep applies the retention policy: finished jobs past the TTL, then
// finished jobs beyond the keep cap, oldest-first. Running, draining
// and queued jobs are never evicted.
func (r *surveyRegistry) sweep(keep int, ttl time.Duration) []*surveyJob {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sweepLocked(keep, ttl)
}

func (r *surveyRegistry) sweepLocked(keep int, ttl time.Duration) []*surveyJob {
	now := r.clock()
	var evicted []*surveyJob
	kept := make([]string, 0, len(r.order))
	finished := 0
	for i := len(r.order) - 1; i >= 0; i-- {
		j := r.jobs[r.order[i]]
		if j == nil {
			continue
		}
		j.mu.Lock()
		terminal := jobstore.Terminal(j.status)
		expired := terminal && ttl > 0 && !j.finishedAt.IsZero() && now.Sub(j.finishedAt) > ttl
		j.mu.Unlock()
		if terminal {
			finished++
			if expired || finished > keep {
				delete(r.jobs, r.order[i])
				evicted = append(evicted, j)
				continue
			}
		}
		kept = append(kept, r.order[i])
	}
	// kept was built newest-first; restore publication order.
	for i, j := 0, len(kept)-1; i < j; i, j = i+1, j-1 {
		kept[i], kept[j] = kept[j], kept[i]
	}
	r.order = kept
	return evicted
}

// remove evicts a job (DELETE on a finished job frees its records).
func (r *surveyRegistry) remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.jobs, id)
}

func (r *surveyRegistry) get(id string) (*surveyJob, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	job, ok := r.jobs[id]
	return job, ok
}

// countByState tallies live jobs per state — the /metrics breakdown.
func (r *surveyRegistry) countByState() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.jobs) == 0 {
		return nil
	}
	out := make(map[string]int, 4)
	for _, j := range r.jobs {
		j.mu.Lock()
		out[j.status]++
		j.mu.Unlock()
	}
	return out
}

func (s *Server) maxSurveyJobs() int {
	if s.surveyCfg.MaxJobs > 0 {
		return s.surveyCfg.MaxJobs
	}
	return 2
}

func (s *Server) keepFinishedSurveys() int {
	if s.surveyCfg.KeepFinished > 0 {
		return s.surveyCfg.KeepFinished
	}
	return keepFinished
}

func (s *Server) handleSurveySubmit(w http.ResponseWriter, r *http.Request) {
	var req surveyRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.met.badInput.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.FQDNs) == 0 {
		s.met.badInput.Add(1)
		writeError(w, http.StatusBadRequest, `need "fqdns"`)
		return
	}
	if len(req.FQDNs) > maxSurveyDomains {
		s.met.badInput.Add(1)
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("survey of %d exceeds limit %d", len(req.FQDNs), maxSurveyDomains))
		return
	}
	if !req.SkipDNS && req.Resolver == "" {
		s.met.badInput.Add(1)
		writeError(w, http.StatusBadRequest, `need "resolver" (or "skip_dns")`)
		return
	}
	be, err := s.requestBackend(req.Backend)
	if err != nil {
		s.met.badInput.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	req.Backend = be.String()

	// Claim the running-job slot FIRST: a request the cap will reject
	// must be shed before it pays for detection, the way /v1/detect's
	// admission gate sheds before scanning.
	if !s.surveys.tryReserve(s.maxSurveyJobs()) {
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("survey: %d jobs already running", s.maxSurveyJobs()))
		return
	}

	// The detect stage answers from ONE epoch, exactly like /v1/detect:
	// the whole survey is attributable to the engine state it started
	// on, even if reloads land while probes run.
	det, epoch := s.engine.Current()
	var inputs []triage.Input
	if req.Detect == nil || *req.Detect {
		inputs = triage.InputsFromMatches(s.scanAll(det, req.FQDNs, be))
	} else {
		seen := make(map[string]bool, len(req.FQDNs))
		for _, name := range req.FQDNs {
			// The same ACE-aware normalization the blacklist and the CLI
			// match-file path use: a Unicode-form candidate probes as its
			// xn-- form, never as a raw non-ASCII DNS name.
			fqdn := triage.NormalizeFQDN(name)
			if fqdn == "" || seen[fqdn] {
				continue
			}
			seen[fqdn] = true
			inputs = append(inputs, triage.Input{FQDN: fqdn})
		}
	}

	job, err := s.startSurvey(surveyStart{
		spec:    req.Spec,
		inputs:  inputs,
		queried: len(req.FQDNs),
		epoch:   epoch,
		slot:    true,
	})
	if err != nil {
		s.releaseSurveySlot()
		s.met.badInput.Add(1)
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, surveyAcceptedResp{
		ID: job.id, Status: surveyRunning, Epoch: epoch,
		Queried: job.queried, Detected: job.detected,
	})
}

// SubmitSurvey is the programmatic submit path — the zone-watch
// batcher's entry point. Unlike the HTTP handler it never sheds: a
// submission arriving while the running-jobs cap is full is accepted
// (durably, when a store is wired) and queued for the next free slot,
// so a burst of zone deltas never orphans its batch. The journal span
// [journalFrom, journalTo) is recorded in the job's manifest; on
// watcher restart the batch cursor resumes after the furthest covered
// offset.
func (s *Server) SubmitSurvey(spec triage.Spec, inputs []triage.Input, queried int,
	journalPath string, journalFrom, journalTo int64) (string, error) {
	_, epoch := s.engine.Current()
	job, err := s.startSurvey(surveyStart{
		spec:        spec,
		inputs:      inputs,
		queried:     queried,
		epoch:       epoch,
		journalPath: journalPath,
		journalFrom: journalFrom,
		journalTo:   journalTo,
		slot:        s.surveys.tryReserve(s.maxSurveyJobs()),
		queue:       true,
	})
	if err != nil {
		return "", err
	}
	return job.id, nil
}

// jobConfig builds a job's pipeline config from its spec, bounded
// first so one client cannot monopolize the process: at most 128
// workers per stage, at least one probe a second when rate-limited,
// and a stage timeout of at most two minutes. A survey of
// maxSurveyDomains at 0.001 qps, or with a multi-day stage timeout,
// would pin a running-jobs slot effectively forever. The manifest keeps
// the spec as submitted. Brand redirects revert through the homoglyph
// DB of the detector the job launches on.
func (s *Server) jobConfig(spec triage.Spec) (triage.Config, error) {
	spec.DNSWorkers = min(spec.DNSWorkers, 128)
	spec.WebWorkers = min(spec.WebWorkers, 128)
	if spec.Rate > 0 && spec.Rate < 1 {
		spec.Rate = 1
	}
	spec.StageTimeoutMS = min(spec.StageTimeoutMS, 120000)
	return spec.Config(s.surveyCfg.Resolve, surveyUserAgent, s.surveyCfg.Blacklists, nil, s.engine.DB())
}

func (s *Server) handleSurveyStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.surveys.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such survey")
		return
	}
	includeRecords := r.URL.Query().Get("records") != "0"
	st := job.snapshot(includeRecords)
	if includeRecords && st.Status == surveyDone && st.Records == nil {
		// A job recovered already-finished keeps its records on disk
		// only; load them for the client that asks.
		job.mu.Lock()
		lazy := job.lazyRecords
		job.mu.Unlock()
		if lazy && s.store() != nil {
			if recs, err := s.store().LoadRecords(job.id); err == nil {
				st.Records = recs
			} else {
				s.logf("survey %s: loading recovered records: %v", job.id, err)
			}
		}
	}
	writeJSON(w, http.StatusOK, st)
}

// handleSurveyCancel cancels a running or queued job; on an
// already-finished job it evicts the entry (and its durable state)
// instead, freeing the records.
func (s *Server) handleSurveyCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.surveys.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such survey")
		return
	}
	job.mu.Lock()
	status := job.status
	cancel := job.cancel
	job.mu.Unlock()
	switch {
	case status == surveyAccepted:
		// Still queued for a slot: pull it off the queue and finalize
		// directly — there is no pipeline to cancel. If the queue race
		// was lost (a slot just launched it), fall through to a plain
		// cancel.
		if s.surveys.dequeue(job) {
			s.finalizeSurvey(job, nil, nil, surveyCancelled, "cancelled", false)
		} else if cancel = job.cancelFn(); cancel != nil {
			cancel()
		}
	case status == surveyRunning || status == surveyDraining:
		if cancel != nil {
			cancel()
		}
	default:
		s.surveys.remove(job.id)
		if st := s.store(); st != nil {
			if err := st.Remove(job.id); err != nil {
				s.logf("survey %s: removing durable state: %v", job.id, err)
			}
		}
	}
	writeJSON(w, http.StatusOK, job.snapshot(false))
}

func (j *surveyJob) cancelFn() func() {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancel
}
