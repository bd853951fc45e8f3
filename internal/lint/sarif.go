package lint

import (
	"encoding/json"
	"fmt"
	"path/filepath"
)

// SARIF 2.1.0 encoding of pumi-vet findings, shaped after the static
// analysis results interchange format schema so output loads directly
// into GitHub code scanning and SARIF-aware editors. Only the fields
// pumi-vet populates are modeled; encoding/json omits nothing we emit,
// so the golden test pins the exact wire shape.

const (
	sarifSchema  = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
	sarifVersion = "2.1.0"
	toolInfoURI  = "https://github.com/fastmath/pumi-go"
)

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID                   string       `json:"id"`
	ShortDescription     sarifMessage `json:"shortDescription"`
	DefaultConfiguration sarifConfig  `json:"defaultConfiguration"`
}

type sarifConfig struct {
	Level string `json:"level"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// SARIF renders diagnostics as an indented SARIF 2.1.0 log. The rules
// table lists every registered analyzer (not just the firing ones) so a
// clean run still documents what was checked, then the driver's own
// rule for malformed directives.
func SARIF(analyzers []*Analyzer, diags []Diagnostic) ([]byte, error) {
	ruleIndex := map[string]int{}
	rules := make([]sarifRule, 0, len(analyzers)+1)
	for i, a := range analyzers {
		ruleIndex[a.Name] = i
		rules = append(rules, sarifRule{
			ID:                   a.Name,
			ShortDescription:     sarifMessage{Text: a.Doc},
			DefaultConfiguration: sarifConfig{Level: "error"},
		})
	}
	ruleIndex[driverName] = len(rules)
	rules = append(rules, sarifRule{
		ID:                   driverName,
		ShortDescription:     sarifMessage{Text: "reject //pumi-vet:ignore directives naming no analyzer"},
		DefaultConfiguration: sarifConfig{Level: "error"},
	})
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		idx, ok := ruleIndex[d.Analyzer]
		if !ok {
			return nil, fmt.Errorf("sarif: diagnostic from unregistered analyzer %q", d.Analyzer)
		}
		results = append(results, sarifResult{
			RuleID:    d.Analyzer,
			RuleIndex: idx,
			Level:     "error",
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: filepath.ToSlash(d.Pos.Filename)},
					Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  sarifSchema,
		Version: sarifVersion,
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: driverName, InformationURI: toolInfoURI, Rules: rules}},
			Results: results,
		}},
	}
	out, err := json.MarshalIndent(&log, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// CheckSARIF validates that data is a structurally sound pumi-vet SARIF
// log — correct schema/version, one run, a named driver, every result
// referencing a declared rule with a usable location — and returns the
// number of results. Used by the CI smoke lane.
func CheckSARIF(data []byte) (int, error) {
	var log sarifLog
	if err := json.Unmarshal(data, &log); err != nil {
		return 0, fmt.Errorf("sarif: %w", err)
	}
	if log.Version != sarifVersion {
		return 0, fmt.Errorf("sarif: version %q, want %q", log.Version, sarifVersion)
	}
	if log.Schema == "" {
		return 0, fmt.Errorf("sarif: missing $schema")
	}
	if len(log.Runs) != 1 {
		return 0, fmt.Errorf("sarif: %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name == "" {
		return 0, fmt.Errorf("sarif: missing tool.driver.name")
	}
	if len(run.Tool.Driver.Rules) == 0 {
		return 0, fmt.Errorf("sarif: empty rules table")
	}
	ruleIDs := map[string]int{}
	for i, r := range run.Tool.Driver.Rules {
		if r.ID == "" {
			return 0, fmt.Errorf("sarif: rule %d has no id", i)
		}
		ruleIDs[r.ID] = i
	}
	for i, r := range run.Results {
		idx, ok := ruleIDs[r.RuleID]
		if !ok {
			return 0, fmt.Errorf("sarif: result %d references undeclared rule %q", i, r.RuleID)
		}
		if r.RuleIndex != idx {
			return 0, fmt.Errorf("sarif: result %d ruleIndex %d, want %d", i, r.RuleIndex, idx)
		}
		if r.Message.Text == "" {
			return 0, fmt.Errorf("sarif: result %d has an empty message", i)
		}
		if len(r.Locations) == 0 {
			return 0, fmt.Errorf("sarif: result %d has no locations", i)
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI == "" || loc.Region.StartLine <= 0 {
			return 0, fmt.Errorf("sarif: result %d has an unusable location", i)
		}
	}
	return len(run.Results), nil
}
