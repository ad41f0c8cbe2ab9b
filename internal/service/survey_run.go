package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/jobstore"
	"repro/internal/resilience"
	"repro/internal/triage"
)

// The survey job lifecycle: startSurvey admits and (durably) accepts a
// job, launch transitions it to running and spawns its pipeline,
// runSurvey streams records to disk as they complete, finalizeSurvey
// lands the terminal state. Every transition that matters for crash
// recovery — accepted, running, draining, terminal — is an atomic
// manifest write, so a SIGKILL between any two instructions leaves a
// state RecoverSurveys resumes exactly.

func (s *Server) store() *jobstore.Store { return s.surveyCfg.Store }

// surveyStart carries one admission into startSurvey.
type surveyStart struct {
	spec        triage.Spec
	inputs      []triage.Input
	queried     int
	epoch       uint64
	journalPath string
	journalFrom int64
	journalTo   int64
	// slot is whether the caller already holds a running-job slot.
	slot bool
	// queue, when the caller holds no slot, parks the job for the next
	// free slot instead of failing (batcher submissions).
	queue bool
}

// startSurvey validates, durably accepts, publishes and (slot
// permitting) launches one job. On error the caller still owns any
// slot it reserved.
func (s *Server) startSurvey(st surveyStart) (*surveyJob, error) {
	// Validate the spec up front: a job that cannot build its pipeline
	// must be rejected at submit, not discovered broken at launch after
	// it was durably accepted.
	cfg, err := s.jobConfig(st.spec)
	if err != nil {
		return nil, err
	}
	if _, err := triage.New(cfg); err != nil {
		return nil, err
	}

	var id string
	if s.store() != nil {
		id = s.store().NewID()
	} else {
		id = s.surveys.nextID()
	}
	job := &surveyJob{
		id:          id,
		epoch:       st.epoch,
		queried:     st.queried,
		detected:    len(st.inputs),
		spec:        st.spec,
		inputs:      st.inputs,
		durable:     s.store() != nil,
		journalPath: st.journalPath,
		journalFrom: st.journalFrom,
		journalTo:   st.journalTo,
		createdUnix: time.Now().Unix(),
		status:      surveyAccepted,
	}
	if err := s.persistSurvey(job); err != nil {
		return nil, err
	}
	s.met.surveys.Add(1)
	s.publishSurvey(job)

	switch {
	case st.slot:
		if err := s.launch(job); err != nil {
			// The slot stays with the caller's reservation; runSurvey never
			// started, so finalize and hand the slot onward here.
			s.finalizeSurvey(job, nil, nil, surveyFailed, err.Error(), true)
			s.releaseSurveySlot()
			return job, nil
		}
	case st.queue:
		s.surveys.enqueue(job)
		s.logf("survey %s: accepted, queued for a running slot (%d candidates)", job.id, job.detected)
	default:
		return nil, errors.New("survey: no slot and queueing disabled")
	}
	return job, nil
}

// publishSurvey makes the job visible and applies retention to older
// finished jobs.
func (s *Server) publishSurvey(job *surveyJob) {
	evicted := s.surveys.publish(job, s.keepFinishedSurveys(), s.surveyCfg.JobTTL)
	s.dropEvicted(evicted)
}

// sweepSurveys applies retention outside a publish (the TTL can expire
// jobs on an otherwise idle server); /metrics scrapes trigger it.
func (s *Server) sweepSurveys() {
	s.dropEvicted(s.surveys.sweep(s.keepFinishedSurveys(), s.surveyCfg.JobTTL))
}

func (s *Server) dropEvicted(evicted []*surveyJob) {
	for _, j := range evicted {
		s.met.surveysEvicted.Add(1)
		if s.store() != nil && j.durable {
			if err := s.store().Remove(j.id); err != nil {
				s.logf("survey %s: evicting durable state: %v", j.id, err)
			}
		}
	}
}

// persistSurvey writes the job's manifest when a store is wired.
func (s *Server) persistSurvey(job *surveyJob) error {
	job.mu.Lock()
	m := job.manifestLocked()
	job.mu.Unlock()
	return s.putManifest(job, m)
}

// putManifest writes m as job's manifest when a store is wired.
func (s *Server) putManifest(job *surveyJob, m jobstore.Manifest) error {
	if s.store() == nil || !job.durable {
		return nil
	}
	if err := s.store().Put(m); err != nil {
		return fmt.Errorf("survey %s: persisting manifest: %w", job.id, err)
	}
	return nil
}

// launch transitions an accepted job to running and spawns its
// pipeline. The caller must hold a running-job slot; on error the job
// has not started and the slot is still the caller's.
func (s *Server) launch(job *surveyJob) error {
	var resume map[string]triage.Record
	if job.durable && job.resume {
		// A job interrupted mid-run: trim the torn tail a crash may have
		// left in its record log and seed the pipeline with the complete
		// records, so the resumed run re-probes only what never finished
		// and the final log is byte-identical to an uninterrupted one.
		var err error
		resume, err = s.store().PrepareResume(job.id)
		if err != nil {
			return err
		}
	}
	cfg, err := s.jobConfig(job.spec)
	if err != nil {
		return err
	}
	cfg.Resume = resume
	pipeline, err := triage.New(cfg)
	if err != nil {
		if cfg.DNS != nil {
			cfg.DNS.Close()
		}
		return err
	}
	if cfg.DNS != nil {
		job.closeDNS = cfg.DNS.Close
	}
	ctx, cancel := context.WithCancel(context.Background())
	job.mu.Lock()
	job.status = surveyRunning
	job.pipeline = pipeline
	job.cancel = cancel
	if job.resume {
		job.resumes++
	}
	job.mu.Unlock()
	if job.resume {
		s.met.surveysResumed.Add(1)
	}
	if err := s.persistSurvey(job); err != nil {
		// The manifest could not record "running"; refuse to run a job a
		// crash could not see. Roll the in-memory state back.
		cancel()
		if job.closeDNS != nil {
			job.closeDNS()
			job.closeDNS = nil
		}
		job.mu.Lock()
		job.status = surveyAccepted
		job.pipeline = nil
		job.cancel = nil
		job.mu.Unlock()
		return err
	}
	s.met.surveysActive.Add(1)
	verb := "running"
	if job.resume {
		verb = fmt.Sprintf("resumed (restart %d)", job.resumes)
	}
	s.logf("survey %s: %s, %d candidates, %d to triage (epoch %d)",
		job.id, verb, job.queried, job.detected, job.epoch)
	go s.runSurvey(ctx, job)
	return nil
}

// releaseSurveySlot frees one running-job slot, launching queued jobs
// while any are waiting. A queued job that fails to launch is
// finalized failed and the slot moves to the next in line.
func (s *Server) releaseSurveySlot() {
	for {
		next := s.surveys.release()
		if next == nil {
			return
		}
		// The cancel race: a DELETE may have dequeued-and-cancelled this
		// job between release() popping it and here — dequeue() returning
		// false made the DELETE fall through to a no-op, so check state.
		next.mu.Lock()
		cancelled := next.status != surveyAccepted
		next.mu.Unlock()
		if cancelled {
			continue
		}
		if err := s.launch(next); err != nil {
			s.finalizeSurvey(next, nil, nil, surveyFailed, err.Error(), true)
			continue
		}
		return
	}
}

// runSurvey drives one launched job to a terminal state, streaming
// each completed record to the durable log the moment the pipeline
// emits it.
func (s *Server) runSurvey(ctx context.Context, job *surveyJob) {
	defer s.releaseSurveySlot()
	defer func() {
		if job.closeDNS != nil {
			job.closeDNS()
		}
	}()
	defer job.cancelFn()()

	// The per-job watchdog: when the pipeline's counters freeze for
	// StallTimeout the job is cancelled and failed with a retryable
	// cause — a wedged resolver or sink must not pin a running slot
	// forever. The watchdog dies with the job's context.
	if t := s.surveyCfg.StallTimeout; t > 0 {
		go resilience.StallWatch{
			Timeout: t,
			Progress: func() int64 {
				pr := job.pipeline.Progress()
				return pr.Submitted + pr.Probed + pr.Fetched + pr.Done
			},
			OnStall: func(stalled time.Duration) {
				job.mu.Lock()
				job.stalledFor = stalled
				cancel := job.cancel
				job.mu.Unlock()
				s.logf("survey %s: watchdog: no progress for %v, cancelling", job.id, stalled.Round(time.Millisecond))
				if cancel != nil {
					cancel()
				}
			},
		}.Run(ctx)
	}

	var writer *triage.RecordWriter
	var closeLog func() error
	if job.durable {
		f, err := s.store().OpenRecordsAppend(job.id)
		if err != nil {
			s.met.surveysActive.Add(-1)
			s.finalizeSurvey(job, nil, nil, surveyFailed, err.Error(), true)
			return
		}
		writer = triage.NewRecordWriter(f)
		closeLog = f.Close
	}

	in := make(chan triage.Input)
	go func() {
		defer close(in)
		for _, input := range job.inputs {
			select {
			case in <- input:
			case <-ctx.Done():
				return
			}
		}
	}()

	records := make([]triage.Record, 0, len(job.inputs))
	var writeErr error
	for rec := range job.pipeline.Stream(ctx, in) {
		// Resumed records are already in the log — a crash leaves a
		// strict prefix (the collector emits in input order and the
		// writer appends in emission order), and the resume set is
		// exactly that prefix. Appending only the new records keeps the
		// log byte-identical to an uninterrupted run at every kill point.
		if writer != nil && !rec.Resumed && writeErr == nil {
			if writeErr = writer.Write(rec); writeErr != nil {
				job.cancelFn()()
			}
		}
		records = append(records, rec)
	}
	if closeLog != nil {
		if err := closeLog(); err != nil && writeErr == nil {
			writeErr = err
		}
	}
	s.met.surveyDomains.Add(uint64(len(records)))

	// Every record that will exist is on disk: announce draining, then
	// compute the tally. A kill between here and the terminal write
	// resumes with a full resume set and an instant re-tally.
	job.mu.Lock()
	job.status = surveyDraining
	stalled := job.stalledFor
	job.mu.Unlock()
	if err := s.persistSurvey(job); err != nil {
		s.logf("%v", err)
	}
	tally := triage.NewTally()
	for _, rec := range records {
		tally.Add(rec)
	}

	// The job leaves the active count before its terminal state is
	// published, so a client that sees it finished never finds it
	// still counted in /metrics.
	s.met.surveysActive.Add(-1)
	runErr := ctx.Err()
	switch {
	case writeErr != nil:
		s.finalizeSurvey(job, records, tally, surveyFailed, "record log: "+writeErr.Error(), true)
	case stalled > 0:
		s.finalizeSurvey(job, records, tally, surveyFailed,
			fmt.Sprintf("stage stalled: no progress for %v", stalled.Round(time.Millisecond)), true)
	case errors.Is(runErr, context.Canceled):
		s.finalizeSurvey(job, records, tally, surveyCancelled, "cancelled", false)
	case runErr != nil:
		s.finalizeSurvey(job, records, tally, surveyFailed, runErr.Error(), true)
	default:
		s.finalizeSurvey(job, records, tally, surveyDone, "", false)
	}
}

// finalizeSurvey lands a job's terminal state: the durable manifest,
// the aggregate tally, then the in-memory results. The status turns
// terminal last, so a client that sees the job finished finds its
// manifest already written and may use or remove the job's directory at
// once.
func (s *Server) finalizeSurvey(job *surveyJob, records []triage.Record, tally *triage.Tally,
	state, errMsg string, retryable bool) {
	job.mu.Lock()
	m := job.manifestLocked()
	job.mu.Unlock()
	m.State, m.Error, m.Retryable, m.Tally = state, errMsg, retryable, tally
	if err := s.putManifest(job, m); err != nil {
		s.logf("%v", err)
	}
	if state == surveyDone && tally != nil {
		s.mergeSurveyTally(tally)
	}
	job.mu.Lock()
	job.status = state
	job.err = errMsg
	job.retryable = retryable
	job.records = records
	job.tally = tally
	job.finishedAt = s.surveys.clock()
	job.mu.Unlock()
	s.logf("survey %s: %s (%d records)", job.id, state, len(records))
}

// mergeSurveyTally folds one finished job's tally into the server-wide
// §6 aggregation /metrics serves.
func (s *Server) mergeSurveyTally(t *triage.Tally) {
	s.tallyMu.Lock()
	defer s.tallyMu.Unlock()
	if s.surveyTally == nil {
		s.surveyTally = triage.NewTally()
	}
	s.surveyTally.Merge(t)
}

// surveyTallySnapshot deep-copies the aggregate tally for a scrape
// (the live one keeps being merged into).
func (s *Server) surveyTallySnapshot() *triage.Tally {
	s.tallyMu.Lock()
	defer s.tallyMu.Unlock()
	if s.surveyTally == nil {
		return nil
	}
	out := triage.NewTally()
	out.Merge(s.surveyTally)
	return out
}

// RecoverSurveys reloads the durable job store after a restart:
// corrupt manifests are quarantined (loudly), finished jobs are
// republished with their tallies re-merged, and interrupted jobs
// resume — under the running-jobs cap, with the overflow queued in
// creation order. Call once after New, before serving traffic. A nil
// store is a no-op.
func (s *Server) RecoverSurveys() error {
	if s.store() == nil {
		return nil
	}
	res, err := s.store().Recover(s.logf)
	if err != nil {
		return err
	}
	s.met.surveysQuarantined.Add(uint64(res.Quarantined))
	for _, m := range res.Finished {
		job := s.jobFromManifest(m)
		job.lazyRecords = true
		s.publishSurvey(job)
		s.met.surveysRecovered.Add(1)
		if m.State == surveyDone && m.Tally != nil {
			s.mergeSurveyTally(m.Tally)
		}
	}
	for _, m := range res.Active {
		job := s.jobFromManifest(m)
		job.resume = true
		job.status = surveyAccepted
		s.publishSurvey(job)
		if s.surveys.tryReserve(s.maxSurveyJobs()) {
			if err := s.launch(job); err != nil {
				s.finalizeSurvey(job, nil, nil, surveyFailed, err.Error(), true)
				s.releaseSurveySlot()
			}
		} else {
			s.surveys.enqueue(job)
			s.logf("survey %s: recovered, queued for a running slot", job.id)
		}
	}
	if n := len(res.Active); n > 0 || res.Quarantined > 0 {
		s.logf("survey recovery: %d interrupted, %d finished, %d quarantined",
			n, len(res.Finished), res.Quarantined)
	}
	return nil
}

// jobFromManifest rebuilds the in-memory job shell a manifest
// describes.
func (s *Server) jobFromManifest(m jobstore.Manifest) *surveyJob {
	return &surveyJob{
		id:          m.ID,
		epoch:       m.Epoch,
		queried:     m.Queried,
		detected:    m.Detected,
		spec:        m.Spec,
		inputs:      m.Inputs,
		durable:     true,
		journalPath: m.JournalPath,
		journalFrom: m.JournalFrom,
		journalTo:   m.JournalTo,
		createdUnix: m.CreatedUnix,
		status:      m.State,
		err:         m.Error,
		retryable:   m.Retryable,
		resumes:     m.Resumes,
		tally:       m.Tally,
		finishedAt:  time.Unix(m.UpdatedUnix, 0),
	}
}
