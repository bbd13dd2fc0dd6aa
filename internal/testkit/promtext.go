package testkit

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// PromSample is one parsed sample line of a Prometheus text exposition:
// metric name, rendered label suffix (`{k="v",...}` or ""), and value.
type PromSample struct {
	Name   string
	Labels string
	Value  float64
}

// PromMetrics is the parsed form of a /metrics scrape: declared types by
// metric base name plus every sample, keyed by full series key
// (name + label suffix).
type PromMetrics struct {
	Types   map[string]string
	Samples map[string]PromSample
}

// Value returns the sample value for a full series key (e.g.
// `reveal_jobs_total{state="done"}`) and whether the series is present.
func (p *PromMetrics) Value(key string) (float64, bool) {
	if p == nil {
		return 0, false
	}
	s, ok := p.Samples[key]
	return s.Value, ok
}

// HasMetric reports whether any series with the given base name exists.
func (p *PromMetrics) HasMetric(name string) bool {
	if p == nil {
		return false
	}
	if _, ok := p.Types[name]; ok {
		return true
	}
	for _, s := range p.Samples {
		if s.Name == name {
			return true
		}
	}
	return false
}

// ParsePrometheusText parses (and thereby validates) a Prometheus text
// exposition, the format produced by Registry.WritePrometheus. It checks
// the invariants a real scraper depends on — one well-formed `name{labels}
// value` per line, balanced and quote-escaped label sets, parseable values,
// no duplicate series — and returns every sample. Used by the smoke tests
// to assert that a live /metrics scrape is ingestible, not merely non-empty.
func ParsePrometheusText(r io.Reader) (*PromMetrics, error) {
	out := &PromMetrics{
		Types:   map[string]string{},
		Samples: map[string]PromSample{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				name, typ := fields[2], fields[3]
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
				}
				if prev, dup := out.Types[name]; dup && prev != typ {
					return nil, fmt.Errorf("line %d: metric %s redeclared as %s (was %s)", lineNo, name, typ, prev)
				}
				out.Types[name] = typ
			}
			continue
		}
		sample, key, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if _, dup := out.Samples[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate series %s", lineNo, key)
		}
		out.Samples[key] = sample
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out.Samples) == 0 {
		return nil, fmt.Errorf("no samples in exposition")
	}
	return out, nil
}

// parsePromSample splits one sample line into its series key and value.
func parsePromSample(line string) (PromSample, string, error) {
	// The series key ends at the first space outside the label braces.
	inQuote, escaped, brace := false, false, false
	split := -1
	for i := 0; i < len(line); i++ {
		c := line[i]
		if escaped {
			escaped = false
			continue
		}
		switch {
		case inQuote && c == '\\':
			escaped = true
		case c == '"':
			inQuote = !inQuote
		case !inQuote && c == '{':
			if brace {
				return PromSample{}, "", fmt.Errorf("nested '{' in series %q", line)
			}
			brace = true
		case !inQuote && c == '}':
			if !brace {
				return PromSample{}, "", fmt.Errorf("unbalanced '}' in series %q", line)
			}
			brace = false
		case !inQuote && !brace && (c == ' ' || c == '\t'):
			split = i
		}
		if split >= 0 {
			break
		}
	}
	if inQuote || brace {
		return PromSample{}, "", fmt.Errorf("unterminated label set in %q", line)
	}
	if split < 0 {
		return PromSample{}, "", fmt.Errorf("sample line %q has no value", line)
	}
	key := line[:split]
	valStr := strings.TrimSpace(line[split:])
	// Timestamps (a second numeric field) are permitted by the format.
	if fields := strings.Fields(valStr); len(fields) > 0 {
		valStr = fields[0]
	}
	val, err := strconv.ParseFloat(valStr, 64)
	if err != nil {
		return PromSample{}, "", fmt.Errorf("bad value %q: %v", valStr, err)
	}
	name, labels := key, ""
	if i := strings.IndexByte(key, '{'); i >= 0 {
		name, labels = key[:i], key[i:]
	}
	if name == "" || !validMetricName(name) {
		return PromSample{}, "", fmt.Errorf("bad metric name in %q", key)
	}
	if labels != "" {
		if err := validateLabelSet(labels); err != nil {
			return PromSample{}, "", fmt.Errorf("series %s: %w", key, err)
		}
	}
	return PromSample{Name: name, Labels: labels, Value: val}, key, nil
}

// validMetricName checks the Prometheus metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return len(s) > 0
}

// validateLabelSet checks a rendered `{k="v",...}` suffix: every pair must
// be name="quoted-value" with valid escaping.
func validateLabelSet(s string) error {
	if len(s) < 2 || s[0] != '{' || s[len(s)-1] != '}' {
		return fmt.Errorf("malformed label set %q", s)
	}
	body := s[1 : len(s)-1]
	if body == "" {
		return nil
	}
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq <= 0 {
			return fmt.Errorf("label pair missing '=' in %q", body)
		}
		name := body[:eq]
		if !validMetricName(strings.TrimSuffix(name, ":")) || strings.Contains(name, ":") {
			return fmt.Errorf("bad label name %q", name)
		}
		rest := body[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return fmt.Errorf("label %s: unquoted value", name)
		}
		// Walk the quoted value honoring backslash escapes.
		end := -1
		for i := 1; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return fmt.Errorf("label %s: unterminated value", name)
		}
		body = rest[end+1:]
		if body == "" {
			break
		}
		if body[0] != ',' {
			return fmt.Errorf("label %s: trailing garbage %q", name, body)
		}
		body = body[1:]
	}
	return nil
}
