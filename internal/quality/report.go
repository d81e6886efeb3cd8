package quality

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"time"
)

// Report is a serialisable snapshot of a ranking run: the DI it was scoped
// to, the benchmarks used for normalisation, and the ordered assessments.
// Reports let monitoring deployments archive each assessment round and
// diff rankings over time.
type Report struct {
	Kind        string               `json:"kind"` // "sources" or "contributors"
	GeneratedAt time.Time            `json:"generated_at"`
	DI          reportDI             `json:"domain_of_interest"`
	Benchmarks  map[string]Benchmark `json:"benchmarks"`
	Entries     []ReportEntry        `json:"entries"`
}

type reportDI struct {
	Categories []string  `json:"categories,omitempty"`
	Start      time.Time `json:"start,omitempty"`
	End        time.Time `json:"end,omitempty"`
	Locations  []string  `json:"locations,omitempty"`
}

// ReportEntry is one ranked item.
type ReportEntry struct {
	Rank       int                `json:"rank"`
	ID         int                `json:"id"`
	Name       string             `json:"name"`
	Score      float64            `json:"score"`
	Raw        map[string]float64 `json:"raw"`
	Normalized map[string]float64 `json:"normalized"`
}

// NewReport assembles a report from an assessor and its ranked
// assessments; Kind names the assessor's record kind.
func NewReport[R any](a *Assessor[R], ranked []*Assessment, at time.Time) *Report {
	r := &Report{
		Kind:        a.engine.kind.name,
		GeneratedAt: at,
		DI: reportDI{
			Categories: a.DI.Categories,
			Start:      a.DI.Start,
			End:        a.DI.End,
			Locations:  a.DI.Locations,
		},
		Benchmarks: maps.Clone(a.benchmarks),
	}
	fillEntries(r, ranked)
	return r
}

func fillEntries(r *Report, ranked []*Assessment) {
	for i, a := range ranked {
		r.Entries = append(r.Entries, ReportEntry{
			Rank:       i + 1,
			ID:         a.ID,
			Name:       a.Name,
			Score:      a.Score,
			Raw:        a.Raw,
			Normalized: a.Normalized,
		})
	}
}

// WriteJSON serialises the report.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("quality: write report: %w", err)
	}
	return nil
}

// ReadReport parses a report previously written with WriteJSON.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("quality: read report: %w", err)
	}
	if r.Kind != sourceKind.name && r.Kind != contributorKind.name {
		return nil, fmt.Errorf("quality: unknown report kind %q", r.Kind)
	}
	return &r, nil
}

// RankShift compares two reports and returns, per item name, the rank
// change (positive = climbed). Items present in only one report are
// skipped — callers watching churn should inspect Entries directly.
func RankShift(old, new *Report) map[string]int {
	oldRank := map[string]int{}
	for _, e := range old.Entries {
		oldRank[e.Name] = e.Rank
	}
	shift := map[string]int{}
	for _, e := range new.Entries {
		if prev, ok := oldRank[e.Name]; ok {
			shift[e.Name] = prev - e.Rank
		}
	}
	return shift
}
