// Package service exposes the hot-swappable detection engine over an
// HTTP JSON API — the serving layer of the paper's "daily operation"
// model (Section 5): detection answers continuously while new zone
// data and reference lists arrive and are swapped in underneath it.
//
// Routes:
//
//	POST /v1/detect        {"fqdn":"..."} or {"fqdns":["...", ...]},
//	                       optional "backend": postings|skeleton|both
//	GET  /v1/explain       ?fqdn=...[&backend=...]  (matches + Figure-12 warnings)
//	POST /v1/reload        {"snapshot":"path"} | {"refs":"path"} |
//	                       {"references":["google", ...]}
//	POST   /v1/survey      {"fqdns":[...], "resolver":"host:port", ...}
//	                       async triage job: detect → DNS → web → blacklist
//	GET    /v1/survey/{id} job status, progress counters, records + tally when done
//	DELETE /v1/survey/{id} cancel a running job
//	GET  /healthz          liveness + current epoch and reference count
//	GET  /metrics          epoch, reference count, QPS, p50/p99 latency, survey counters
//
// Every detection response names the engine epoch it was computed
// against, and each request runs entirely on one atomically-loaded
// state: a reload mid-request never splits an answer across epochs.
// Queries are normalized by the exact zone-line rules the CLI feeder
// uses (core.NormalizeZoneLine), so `serve` and `detect` cannot
// disagree about case folding, the trailing root dot or the gate.
//
// Overload sheds instead of OOMing: a bounded-concurrency gate admits
// at most MaxInFlight detection requests; beyond that the server
// answers 503 with Retry-After immediately, keeping memory flat and
// the admitted requests fast. /healthz and /metrics bypass the gate —
// an overloaded server must still tell its monitor it is alive.
//
// /v1/reload reads operator-named files from the server's own
// filesystem; bind the listener to localhost or a trusted network, as
// you would any operations endpoint.
package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/homoglyph"
	"repro/internal/reflist"
	"repro/internal/triage"
	"repro/internal/zonewatch"
)

// Config parameterizes a Server.
type Config struct {
	// Engine is the hot-swappable detection state. Required.
	Engine *core.Engine
	// MaxInFlight bounds concurrently admitted detection requests;
	// excess requests are shed with 503. 0 means 8×GOMAXPROCS.
	MaxInFlight int
	// MaxBatch bounds the FQDN count of one /v1/detect request.
	// 0 means 10000.
	MaxBatch int
	// Backend selects the default detection backend for requests that
	// do not name one ("backend" in /v1/detect bodies, ?backend= on
	// /v1/explain). The zero value means the postings backend.
	Backend core.Backend
	// Survey wires the async triage job API (POST /v1/survey). The
	// zero value works; see SurveyConfig.
	Survey SurveyConfig
	// ZoneWatch, when non-nil, is a continuous zone watcher running
	// alongside this server; its health (breaker states, delta counters,
	// queue depth) is folded into /metrics so one scrape covers both the
	// serving path and the ingestion path.
	ZoneWatch *zonewatch.Watcher
	// Logf receives operational log lines; nil means silent.
	Logf func(format string, args ...any)
}

// Server is the HTTP serving layer over a core.Engine. Construct with
// New; it implements http.Handler.
type Server struct {
	engine    *core.Engine
	sem       chan struct{}
	maxBatch  int
	backend   core.Backend
	logf      func(string, ...any)
	mux       *http.ServeMux
	met       metrics
	reloadMu  sync.Mutex // serializes /v1/reload; queries never take it
	bufs      sync.Pool  // *[]byte normalization buffers
	surveyCfg SurveyConfig
	surveys   surveyRegistry
	zoneWatch *zonewatch.Watcher

	// tallyMu guards surveyTally, the server-wide §6 aggregation merged
	// from every finished survey job (including recovered ones).
	tallyMu     sync.Mutex
	surveyTally *triage.Tally
	// journalLag, when set (SetJournalLag), reports how many bytes of
	// the zone-watch deltas journal no survey job covers yet.
	journalLag func() int64
}

// SetJournalLag wires the /metrics journal-lag probe — how far the
// survey batcher is behind the zone-watch deltas journal, in bytes.
// Call during wiring, before traffic.
func (s *Server) SetJournalLag(fn func() int64) { s.journalLag = fn }

// New builds a Server over cfg.Engine.
func New(cfg Config) *Server {
	if cfg.Engine == nil {
		panic("service: Config.Engine is required")
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight <= 0 {
		maxInFlight = 8 * runtime.GOMAXPROCS(0)
	}
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 10000
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	backend := cfg.Backend
	if backend == 0 {
		backend = core.BackendPostings
	}
	s := &Server{
		engine:    cfg.Engine,
		sem:       make(chan struct{}, maxInFlight),
		maxBatch:  maxBatch,
		backend:   backend,
		logf:      logf,
		mux:       http.NewServeMux(),
		surveyCfg: cfg.Survey,
		zoneWatch: cfg.ZoneWatch,
	}
	s.met.start = time.Now()
	s.bufs.New = func() any { b := make([]byte, 0, 256); return &b }
	s.mux.HandleFunc("POST /v1/detect", s.bounded(s.handleDetect))
	s.mux.HandleFunc("GET /v1/explain", s.bounded(s.handleExplain))
	s.mux.HandleFunc("POST /v1/reload", s.handleReload)
	// Survey jobs run in the background on their own worker pools, so
	// submission is not gated by the detection-concurrency limiter —
	// the per-registry running-jobs cap bounds them instead.
	s.mux.HandleFunc("POST /v1/survey", s.handleSurveySubmit)
	s.mux.HandleFunc("GET /v1/survey/{id}", s.handleSurveyStatus)
	s.mux.HandleFunc("DELETE /v1/survey/{id}", s.handleSurveyCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Stats snapshots the serving counters — what /metrics serves. A
// scrape also runs the survey retention sweep, so TTL evictions fire
// on an otherwise idle server.
func (s *Server) Stats() Stats {
	s.sweepSurveys()
	det, epoch := s.engine.Current()
	st := s.met.snapshot(epoch, det.NumReferences())
	if s.zoneWatch != nil {
		h := s.zoneWatch.Health()
		st.ZoneWatch = &h
	}
	st.SurveyJobs = s.surveys.countByState()
	st.SurveyTally = s.surveyTallySnapshot()
	if s.journalLag != nil {
		st.SurveyJournalLag = s.journalLag()
	}
	return st
}

// bounded wraps a detection handler in the concurrency gate and the
// latency/QPS accounting. Admission is one non-blocking channel send:
// a full gate means the server is at capacity, and queueing further
// requests would only grow memory until the process died — shedding
// with Retry-After keeps the admitted requests fast and the process
// alive (the "overload sheds instead of OOMing" contract).
func (s *Server) bounded(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
		default:
			s.met.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "overloaded: concurrency limit reached")
			return
		}
		s.met.inFlight.Add(1)
		start := time.Now()
		defer func() {
			s.met.latency.observe(time.Since(start))
			s.met.inFlight.Add(-1)
			<-s.sem
		}()
		s.met.requests.Add(1)
		h(w, r)
	}
}

// maxPooledBuf caps what goes back into the normalization pool. A
// legitimate FQDN is ≤253 bytes; a hostile multi-megabyte "fqdn"
// would otherwise inflate a pooled buffer permanently — up to
// MaxInFlight of them — on the very path whose contract is "overload
// sheds instead of OOMing". Oversized buffers are simply dropped for
// the GC.
const maxPooledBuf = 4096

func (s *Server) putBuf(buf *[]byte) {
	if cap(*buf) <= maxPooledBuf {
		s.bufs.Put(buf)
	}
}

// --- request/response shapes ---

type detectRequest struct {
	FQDN    string   `json:"fqdn,omitempty"`
	FQDNs   []string `json:"fqdns,omitempty"`
	Backend string   `json:"backend,omitempty"`
}

type detectResponse struct {
	Epoch   uint64  `json:"epoch"`
	Queried int     `json:"queried"`
	Backend string  `json:"backend"`
	Matches []Match `json:"matches"`
}

type explainResponse struct {
	Epoch    uint64   `json:"epoch"`
	Backend  string   `json:"backend"`
	Matches  []Match  `json:"matches"`
	Warnings []string `json:"warnings"`
}

type reloadRequest struct {
	Snapshot   string   `json:"snapshot,omitempty"`
	Refs       string   `json:"refs,omitempty"`
	References []string `json:"references,omitempty"`
}

type reloadResponse struct {
	Epoch      uint64 `json:"epoch"`
	References int    `json:"references"`
	Source     string `json:"source"`
}

type healthResponse struct {
	Status     string `json:"status"`
	Epoch      uint64 `json:"epoch"`
	References int    `json:"references"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// --- handlers ---

// scan normalizes one incoming name into the pooled buffer by the
// zone-line rules (core.NormalizeZoneLine) and scans it against det:
// trailing root dot dropped, ASCII uppercase folded (non-ASCII folding
// happens in the punycode decode, same as ingestion), and a name with
// an inner space or tab read as a master-file record, its first field
// scanned. Under the posting backend, names with no scannable candidate
// label — plain ASCII, or an ACE-TLD-only shape — return no matches
// without touching the index.
func scan(det *core.Detector, buf *[]byte, name string, be core.Backend) []core.Match {
	*buf = append((*buf)[:0], name...)
	fqdn, ok := core.NormalizeZoneLine(*buf, be)
	if !ok {
		return nil
	}
	return det.DetectDomainBytesBackend(fqdn, be)
}

// scanAll scans names against det through one pooled buffer and
// returns their matches sorted — the loop behind /v1/detect,
// /v1/explain and survey submission.
func (s *Server) scanAll(det *core.Detector, names []string, be core.Backend) []core.Match {
	buf := s.bufs.Get().(*[]byte)
	var matches []core.Match
	for _, name := range names {
		matches = append(matches, scan(det, buf, name, be)...)
	}
	s.putBuf(buf)
	core.SortMatches(matches)
	return matches
}

// requestBackend resolves a request's backend name against the server
// default; an unknown name is the caller's error.
func (s *Server) requestBackend(name string) (core.Backend, error) {
	if name == "" {
		return s.backend, nil
	}
	return core.ParseBackend(name)
}

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	var req detectRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.met.badInput.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	names := req.FQDNs
	if req.FQDN != "" {
		names = append([]string{req.FQDN}, names...)
	}
	if len(names) == 0 {
		s.met.badInput.Add(1)
		writeError(w, http.StatusBadRequest, `need "fqdn" or "fqdns"`)
		return
	}
	if len(names) > s.maxBatch {
		s.met.badInput.Add(1)
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds limit %d", len(names), s.maxBatch))
		return
	}
	be, err := s.requestBackend(req.Backend)
	if err != nil {
		s.met.badInput.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	// One engine load for the whole request: every name in the batch is
	// answered by the same epoch, even if a reload lands mid-loop.
	det, epoch := s.engine.Current()
	matches := s.scanAll(det, names, be)
	s.met.domains.Add(uint64(len(names)))
	s.met.matches.Add(uint64(len(matches)))
	writeJSON(w, http.StatusOK, detectResponse{
		Epoch:   epoch,
		Queried: len(names),
		Backend: be.String(),
		Matches: NewMatches(matches),
	})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("fqdn")
	if name == "" {
		s.met.badInput.Add(1)
		writeError(w, http.StatusBadRequest, `need ?fqdn=`)
		return
	}
	be, err := s.requestBackend(r.URL.Query().Get("backend"))
	if err != nil {
		s.met.badInput.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	det, epoch := s.engine.Current()
	matches := s.scanAll(det, []string{name}, be)
	s.met.domains.Add(1)
	s.met.matches.Add(uint64(len(matches)))
	warnings := make([]string, len(matches))
	for i, m := range matches {
		warnings[i] = core.BuildWarning(m).Text()
	}
	writeJSON(w, http.StatusOK, explainResponse{
		Epoch:    epoch,
		Backend:  be.String(),
		Matches:  NewMatches(matches),
		Warnings: warnings,
	})
}

// handleReload swaps new state under live traffic. reflist.Resolve
// picks the detector from the request's snapshot, refs and references
// by the rule startup applies, over the current homoglyph DB when no
// snapshot is named: a snapshot reload is the 20 ms path, a list
// reload rebuilds off the live DB. Reloads serialize among themselves;
// queries never wait.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req reloadRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.met.badInput.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	res, err := reflist.Resolve(req.Snapshot, req.Refs, req.References,
		func() (*homoglyph.DB, error) { return s.engine.DB(), nil }, true)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	// Report THIS detector's count: reading it back from the engine
	// after a concurrent -watch swap could pair epoch N with another
	// epoch's reference count.
	epoch, refs := s.engine.Swap(res.Detector), res.Detector.NumReferences()
	s.noteSwap()
	s.logf("reload: epoch %d, %d references (%s)", epoch, refs, res.Source)
	writeJSON(w, http.StatusOK, reloadResponse{Epoch: epoch, References: refs, Source: res.Source})
}

// noteSwap records a successful swap for /metrics.
func (s *Server) noteSwap() {
	s.met.reloads.Add(1)
	s.met.lastSwapN.Store(time.Now().UnixNano())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	det, epoch := s.engine.Current()
	writeJSON(w, http.StatusOK, healthResponse{
		Status:     "ok",
		Epoch:      epoch,
		References: det.NumReferences(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// --- plumbing ---

// maxBodyBytes bounds request bodies; a detect batch of maxBatch
// 253-byte FQDNs fits with an order of magnitude to spare.
const maxBodyBytes = 32 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the client hanging up mid-response is its problem
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}
