package service

import (
	"encoding/json"
	"net/http"
	"net/url"
	"testing"

	"repro/internal/core"
	"repro/internal/triage"
)

// The backend selector end-to-end through /v1/detect: the default
// posting backend cannot see a pure-ASCII many-to-one homograph, an
// explicit "skeleton" (or "both") catches it, and the response names
// the backend it answered with.
func TestDetectBackendSelection(t *testing.T) {
	_, ts := newTestServer(t, []string{"microsoft", "google"}, Config{})

	out, resp := detect(t, ts, detectRequest{FQDN: "rnicrosoft.com"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Backend != "postings" || len(out.Matches) != 0 {
		t.Fatalf("default backend response: %+v", out)
	}

	out, _ = detect(t, ts, detectRequest{FQDN: "rnicrosoft.com", Backend: "skeleton"})
	if out.Backend != "skeleton" || len(out.Matches) != 1 {
		t.Fatalf("skeleton response: %+v", out)
	}
	m := out.Matches[0]
	if m.Reference != "microsoft" || m.Imitated != "microsoft.com" || m.Backend != "skeleton" {
		t.Fatalf("skeleton match = %+v", m)
	}
	if len(m.Diffs) != 0 {
		t.Fatalf("skeleton match carries diffs: %+v", m.Diffs)
	}

	// Both-mode on a same-length homograph: found by the two backends,
	// tagged with the union, diffs preserved from the posting side.
	out, _ = detect(t, ts, detectRequest{FQDN: ace(t, "gооgle") + ".com", Backend: "both"})
	if out.Backend != "both" || len(out.Matches) != 1 {
		t.Fatalf("both response: %+v", out)
	}
	if out.Matches[0].Backend != "both" || len(out.Matches[0].Diffs) != 2 {
		t.Fatalf("both match = %+v", out.Matches[0])
	}
}

func TestDetectBackendUnknownRejected(t *testing.T) {
	s, ts := newTestServer(t, []string{"google"}, Config{})
	_, resp := detect(t, ts, detectRequest{FQDN: "google.com", Backend: "tr39"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if got := s.met.badInput.Load(); got != 1 {
		t.Fatalf("badInput = %d", got)
	}
}

// A server configured with a non-default backend applies it to
// requests that name none.
func TestServerDefaultBackend(t *testing.T) {
	_, ts := newTestServer(t, []string{"microsoft"}, Config{Backend: core.BackendBoth})
	out, _ := detect(t, ts, detectRequest{FQDN: "rnicrosoft.com"})
	if out.Backend != "both" || len(out.Matches) != 1 || out.Matches[0].Backend != "skeleton" {
		t.Fatalf("default-both response: %+v", out)
	}
}

func TestExplainBackendParam(t *testing.T) {
	_, ts := newTestServer(t, []string{"microsoft"}, Config{})
	var out explainResponse
	resp := getJSON(t, ts.URL+"/v1/explain?backend=skeleton&fqdn="+url.QueryEscape("rnicrosoft.com"), &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Backend != "skeleton" || len(out.Matches) != 1 || len(out.Warnings) != 1 {
		t.Fatalf("explain response: %+v", out)
	}
}

// The survey submit path runs its detect stage under the requested
// backend and records the resolved backend in the job's spec: an
// explicit "skeleton" as given, and an empty one as the server default.
func TestSurveyBackendSpec(t *testing.T) {
	s, ts := newTestServer(t, []string{"microsoft"}, Config{})
	for _, c := range []struct{ backend, want string }{{"skeleton", "skeleton"}, {"", "postings"}} {
		resp, data := postJSON(t, ts.URL+"/v1/survey", surveyRequest{
			FQDNs: []string{"rnicrosoft.com", "plain.com"},
			Spec:  triage.Spec{Backend: c.backend, SkipDNS: true, SkipWeb: true},
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d: %s", resp.StatusCode, data)
		}
		var acc surveyAcceptedResp
		if err := json.Unmarshal(data, &acc); err != nil {
			t.Fatal(err)
		}
		job, _ := s.surveys.get(acc.ID)
		want := triage.Spec{Backend: c.want, SkipDNS: true, SkipWeb: true}
		if job.spec != want {
			t.Fatalf("backend %q: spec = %+v, want %+v", c.backend, job.spec, want)
		}
		pollSurvey(t, ts, acc.ID)
	}
}

// Skeleton-only matches flow into triage inputs with the TR39
// attribution (no per-character diffs to intersect).
func TestSkeletonMatchTriageAttribution(t *testing.T) {
	det := core.NewDetector(testDB(t), []string{"microsoft"})
	ms := det.DetectDomainBackend("rnicrosoft.com", core.BackendSkeleton)
	if len(ms) != 1 {
		t.Fatalf("matches = %v", ms)
	}
	inputs := triage.InputsFromMatches(ms)
	if len(inputs) != 1 || inputs[0].Source != "TR39" || inputs[0].Reference != "microsoft.com" {
		t.Fatalf("inputs = %+v", inputs)
	}
}
