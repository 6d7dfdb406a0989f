package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// Strict Prometheus text-exposition (version 0.0.4) line validator.
// The daemons write /metrics through Writer; this validator shares no
// code with it and keeps that output scrapeable — in particular it
// rejects the easy-to-ship bugs: label values with raw quotes or
// newlines, metrics emitted before their TYPE line, histogram series
// without the _sum/_count pair, and non-numeric sample values.

// ValidateExposition checks a complete /metrics payload. Rules:
//
//   - every line is a comment ("# HELP", "# TYPE"), blank-free
//     sample, or empty trailing line;
//   - each sample's metric family (name stripped of histogram
//     suffixes) must have a preceding "# TYPE name counter|gauge|
//     histogram";
//   - metric and label names match the Prometheus grammar; label
//     values use only the \\, \", \n escapes;
//   - sample values parse as Go floats ("NaN"/"+Inf" included);
//   - histogram families carry _bucket with an le label plus _sum
//     and _count.
func ValidateExposition(text string) error {
	types := map[string]string{}
	seenBucket := map[string]bool{}
	seenSum := map[string]bool{}
	seenCount := map[string]bool{}

	for i, line := range strings.Split(text, "\n") {
		lineNo := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, err := parseComment(line)
			if err != nil {
				return fmt.Errorf("line %d: %v", lineNo, err)
			}
			if kind == "TYPE" {
				if _, dup := types[name]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
					types[name] = rest
				default:
					return fmt.Errorf("line %d: unknown metric type %q", lineNo, rest)
				}
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suffix)
			if trimmed != name && types[trimmed] == "histogram" {
				family = trimmed
				switch suffix {
				case "_bucket":
					seenBucket[family] = true
					if _, ok := labels["le"]; !ok {
						return fmt.Errorf("line %d: %s without le label", lineNo, name)
					}
				case "_sum":
					seenSum[family] = true
				case "_count":
					seenCount[family] = true
				}
				break
			}
		}
		t, ok := types[family]
		if !ok {
			return fmt.Errorf("line %d: sample %s before its # TYPE line", lineNo, name)
		}
		if t == "histogram" && family == name {
			return fmt.Errorf("line %d: histogram %s sampled without _bucket/_sum/_count suffix", lineNo, name)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return fmt.Errorf("line %d: sample %s: bad value %q", lineNo, name, value)
		}
	}

	for family, t := range types {
		if t != "histogram" {
			continue
		}
		if !seenBucket[family] || !seenSum[family] || !seenCount[family] {
			return fmt.Errorf("histogram %s: missing bucket/sum/count series", family)
		}
	}
	return nil
}

func parseComment(line string) (kind, name, rest string, err error) {
	body := strings.TrimPrefix(line, "#")
	if body == line {
		return "", "", "", fmt.Errorf("malformed comment %q", line)
	}
	body = strings.TrimPrefix(body, " ")
	switch {
	case strings.HasPrefix(body, "HELP "):
		fields := strings.SplitN(body[len("HELP "):], " ", 2)
		if len(fields) == 0 || !validMetricName(fields[0]) {
			return "", "", "", fmt.Errorf("HELP with bad metric name in %q", line)
		}
		return "HELP", fields[0], "", nil
	case strings.HasPrefix(body, "TYPE "):
		fields := strings.Fields(body[len("TYPE "):])
		if len(fields) != 2 || !validMetricName(fields[0]) {
			return "", "", "", fmt.Errorf("malformed TYPE line %q", line)
		}
		return "TYPE", fields[0], fields[1], nil
	default:
		// Bare comments are legal exposition; ignore.
		return "", "", "", nil
	}
}

// parseSample splits `name{labels} value [timestamp]`. It enforces
// the escaping rules inside label values: only \\, \", \n.
func parseSample(line string) (name string, labels map[string]string, value string, err error) {
	labels = map[string]string{}
	rest := line
	brace := strings.IndexByte(rest, '{')
	if brace >= 0 {
		name = rest[:brace]
		rest = rest[brace+1:]
		for {
			rest = strings.TrimLeft(rest, " ")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.IndexByte(rest, '=')
			if eq < 0 {
				return "", nil, "", fmt.Errorf("label without '=' in %q", line)
			}
			label := strings.TrimSpace(rest[:eq])
			if !validLabelName(label) {
				return "", nil, "", fmt.Errorf("bad label name %q", label)
			}
			rest = rest[eq+1:]
			if !strings.HasPrefix(rest, `"`) {
				return "", nil, "", fmt.Errorf("unquoted value for label %q", label)
			}
			rest = rest[1:]
			var val strings.Builder
			closed := false
			for len(rest) > 0 {
				c := rest[0]
				if c == '\\' {
					if len(rest) < 2 {
						return "", nil, "", fmt.Errorf("dangling escape in label %q", label)
					}
					switch rest[1] {
					case '\\', '"', 'n':
						val.WriteByte(rest[1])
					default:
						return "", nil, "", fmt.Errorf("invalid escape \\%c in label %q", rest[1], label)
					}
					rest = rest[2:]
					continue
				}
				if c == '"' {
					rest = rest[1:]
					closed = true
					break
				}
				if c == '\n' {
					return "", nil, "", fmt.Errorf("raw newline in label %q", label)
				}
				val.WriteByte(c)
				rest = rest[1:]
			}
			if !closed {
				return "", nil, "", fmt.Errorf("unterminated value for label %q", label)
			}
			labels[label] = val.String()
			rest = strings.TrimLeft(rest, " ")
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
			}
		}
	} else {
		sp := strings.IndexAny(rest, " \t")
		if sp < 0 {
			return "", nil, "", fmt.Errorf("sample without value in %q", line)
		}
		name = rest[:sp]
		rest = rest[sp:]
	}
	if !validMetricName(name) {
		return "", nil, "", fmt.Errorf("bad metric name %q", name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, "", fmt.Errorf("want 'value [timestamp]' after name in %q", line)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, "", fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return name, labels, fields[0], nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
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
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
