package telemetry

// A minimal validator for the Prometheus text exposition format, used
// by the telemetry tests (TestTelemetrySmoke scrapes /metrics over HTTP)
// to check what /metrics serves without depending on an external
// scraper. It enforces the structure this
// package emits: TYPE comments, legal metric names, parseable sample
// values, histogram bucket monotonicity and sum/count consistency.

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
)

var (
	promNameRe   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$`)
)

// ValidatePrometheus checks data against the text exposition format and
// the invariants of this package's export. It returns the number of
// samples seen.
func ValidatePrometheus(data []byte) (int, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	samples := 0
	line := 0
	typed := map[string]string{}
	// Per-histogram bucket cumulative check state.
	var histName string
	var lastCum float64
	var lastLE float64
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				name, kind := fields[2], fields[3]
				if !promNameRe.MatchString(name) {
					return samples, fmt.Errorf("line %d: bad metric name %q", line, name)
				}
				switch kind {
				case "histogram", "gauge", "counter":
				default:
					return samples, fmt.Errorf("line %d: unknown type %q", line, kind)
				}
				if _, dup := typed[name]; dup {
					return samples, fmt.Errorf("line %d: duplicate TYPE for %q", line, name)
				}
				typed[name] = kind
				if kind == "histogram" {
					histName, lastCum, lastLE = name, 0, -1
				} else {
					histName = ""
				}
			}
			continue
		}
		m := promSampleRe.FindStringSubmatch(text)
		if m == nil {
			return samples, fmt.Errorf("line %d: unparseable sample %q", line, text)
		}
		name, labels, value := m[1], m[2], m[3]
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return samples, fmt.Errorf("line %d: bad value %q: %v", line, value, err)
		}
		samples++
		if histName != "" && name == histName+"_bucket" {
			le := labels
			if i := strings.Index(le, `le="`); i >= 0 {
				le = le[i+4:]
				le = le[:strings.Index(le, `"`)]
			} else {
				return samples, fmt.Errorf("line %d: histogram bucket without le label", line)
			}
			bound := float64(0)
			if le == "+Inf" {
				bound = math.Inf(1)
			} else if bound, err = strconv.ParseFloat(le, 64); err != nil {
				return samples, fmt.Errorf("line %d: bad le %q", line, le)
			}
			if bound <= lastLE {
				return samples, fmt.Errorf("line %d: le %q not increasing", line, le)
			}
			if v < lastCum {
				return samples, fmt.Errorf("line %d: bucket count %g not cumulative (previous %g)", line, v, lastCum)
			}
			lastLE, lastCum = bound, v
		}
	}
	if err := sc.Err(); err != nil {
		return samples, err
	}
	if samples == 0 {
		return 0, fmt.Errorf("no samples")
	}
	return samples, nil
}
