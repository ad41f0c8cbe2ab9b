package service

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jobstore"
	"repro/internal/triage"
)

// BenchmarkDeltasToTally measures the batcher's downstream half: one
// batch of journal deltas submitted through SubmitSurvey, durably
// accepted, run through the pipeline and merged into the continuous
// tally. The skip-all spec keeps probing out of the measurement, so
// ns/op is the delta→durable-record→tally overhead itself and
// domains/s the sustained ingestion rate of the durable path.
func BenchmarkDeltasToTally(b *testing.B) {
	const batch = 512
	store, err := jobstore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	engine := core.NewEngine(core.NewDetector(testDB(b), []string{"google", "facebook"}))
	// A small retention cap keeps the sweep (which runs inside Stats)
	// GCing finished jobs, so the store does not grow with b.N.
	s := New(Config{Engine: engine, Survey: SurveyConfig{Store: store, KeepFinished: 4}})
	inputs := make([]triage.Input, batch)
	for i := range inputs {
		inputs[i] = triage.Input{
			FQDN:      fmt.Sprintf("xn--delta%04d.example", i),
			Reference: "google.example",
			Source:    "UC",
		}
	}
	spec := triage.Spec{SkipDNS: true, SkipWeb: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SubmitSurvey(spec, inputs, batch, "", 0, 0); err != nil {
			b.Fatal(err)
		}
		want := uint64(batch * (i + 1))
		for s.Stats().SurveyDomains < want {
			time.Sleep(200 * time.Microsecond)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "domains/s")
}
