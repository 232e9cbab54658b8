package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4): families in name order, one
// # HELP / # TYPE pair per family, children in sorted label order,
// histograms expanded into cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		switch {
		case f.counter != nil:
			writeSample(bw, f.name, f.labelNames, nil, "", formatUint(f.counter.Value()))
		case f.gauge != nil:
			writeSample(bw, f.name, f.labelNames, nil, "", formatInt(f.gauge.Value()))
		case f.floatGauge != nil:
			writeSample(bw, f.name, f.labelNames, nil, "", formatFloat(f.floatGauge.Value()))
		case f.histogram != nil:
			writeHistogram(bw, f.name, nil, nil, f.histogram)
		case f.counterVec != nil:
			f.counterVec.each(func(vals []string, c *Counter) {
				writeSample(bw, f.name, f.labelNames, vals, "", formatUint(c.Value()))
			})
		case f.histVec != nil:
			f.histVec.each(func(vals []string, h *Histogram) {
				writeHistogram(bw, f.name, f.labelNames, vals, h)
			})
		}
	}
	return bw.Flush()
}

func writeHistogram(w *bufio.Writer, name string, labelNames, labelVals []string, h *Histogram) {
	cum, count, sum := h.snapshot()
	for i, bound := range h.bounds {
		writeSample(w, name+"_bucket", labelNames, labelVals, formatFloat(bound), formatUint(cum[i]))
	}
	writeSample(w, name+"_bucket", labelNames, labelVals, "+Inf", formatUint(count))
	writeSample(w, name+"_sum", labelNames, labelVals, "", formatFloat(sum))
	writeSample(w, name+"_count", labelNames, labelVals, "", formatUint(count))
}

// writeSample emits one line: name{labels,le="..."} value. le, when
// non-empty, is appended after the family labels.
func writeSample(w *bufio.Writer, name string, labelNames, labelVals []string, le, value string) {
	w.WriteString(name)
	if len(labelVals) > 0 || le != "" {
		w.WriteByte('{')
		sep := false
		for i, ln := range labelNames {
			if sep {
				w.WriteByte(',')
			}
			sep = true
			w.WriteString(ln)
			w.WriteString(`="`)
			w.WriteString(escapeLabel(labelVals[i]))
			w.WriteByte('"')
		}
		if le != "" {
			if sep {
				w.WriteByte(',')
			}
			w.WriteString(`le="`)
			w.WriteString(le)
			w.WriteByte('"')
		}
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(value)
	w.WriteByte('\n')
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }
func formatInt(v int64) string   { return strconv.FormatInt(v, 10) }
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// --- exposition validation --------------------------------------------------

// ValidateExposition parses Prometheus text exposition and verifies its
// structural invariants: every sample line parses, every sample is
// preceded by a # TYPE for its family, label values are properly quoted
// and escaped, histogram buckets are cumulative-monotone, end with
// le="+Inf", and agree with their _count series. It is the shared
// checker behind the golden test and the CI /metrics smoke step.
func ValidateExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	types := map[string]string{} // family name -> type

	// histogram bookkeeping, keyed by family + non-le labels
	lastBucket := map[string]float64{} // previous le bound
	lastCum := map[string]uint64{}     // previous cumulative count
	infCount := map[string]uint64{}    // +Inf bucket value
	countVal := map[string]uint64{}    // _count series value

	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.SplitN(text, " ", 4)
			if len(fields) >= 3 && fields[1] == "TYPE" {
				if len(fields) < 4 {
					return fmt.Errorf("line %d: malformed TYPE comment", line)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown metric type %q", line, fields[3])
				}
				if _, dup := types[fields[2]]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %q", line, fields[2])
				}
				types[fields[2]] = fields[3]
			}
			continue
		}
		name, labels, value, err := parseSample(text)
		if err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		base := histogramBase(name, types)
		if base == "" {
			if _, ok := types[name]; !ok {
				return fmt.Errorf("line %d: sample %q has no preceding # TYPE", line, name)
			}
			continue
		}
		// Histogram series: track bucket monotonicity and count agreement.
		le, rest := splitLE(labels)
		key := base + "\x00" + rest
		switch {
		case strings.HasSuffix(name, "_bucket"):
			if le == "" {
				return fmt.Errorf("line %d: %s without le label", line, name)
			}
			bound := math.Inf(1)
			if le != "+Inf" {
				bound, err = strconv.ParseFloat(le, 64)
				if err != nil {
					return fmt.Errorf("line %d: bad le %q: %v", line, le, err)
				}
			}
			cum, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return fmt.Errorf("line %d: bucket value %q not a count", line, value)
			}
			if prev, ok := lastBucket[key]; ok {
				if bound <= prev {
					return fmt.Errorf("line %d: bucket bounds not increasing (%v after %v)", line, bound, prev)
				}
				if cum < lastCum[key] {
					return fmt.Errorf("line %d: cumulative bucket count decreased (%d after %d)", line, cum, lastCum[key])
				}
			}
			lastBucket[key] = bound
			lastCum[key] = cum
			if le == "+Inf" {
				infCount[key] = cum
			}
		case strings.HasSuffix(name, "_count"):
			c, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return fmt.Errorf("line %d: count value %q not a count", line, value)
			}
			countVal[key] = c
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for key, c := range countVal {
		inf, ok := infCount[key]
		if !ok {
			return fmt.Errorf("histogram %q has _count but no le=\"+Inf\" bucket", strings.SplitN(key, "\x00", 2)[0])
		}
		if inf != c {
			return fmt.Errorf("histogram %q: +Inf bucket %d != count %d", strings.SplitN(key, "\x00", 2)[0], inf, c)
		}
	}
	if len(types) == 0 {
		return fmt.Errorf("exposition contains no metric families")
	}
	return nil
}

// histogramBase returns the family name when name is a histogram series
// (_bucket/_sum/_count of a family typed histogram), else "".
func histogramBase(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			base := strings.TrimSuffix(name, suf)
			if types[base] == "histogram" {
				return base
			}
		}
	}
	return ""
}

// splitLE removes the le pair from a rendered label block, returning its
// value and the remaining canonical label string.
func splitLE(labels []label) (le string, rest string) {
	var b strings.Builder
	for _, l := range labels {
		if l.name == "le" {
			le = l.value
			continue
		}
		b.WriteString(l.name)
		b.WriteByte('=')
		b.WriteString(l.value)
		b.WriteByte(';')
	}
	return le, b.String()
}

type label struct{ name, value string }

// parseSample parses `name{l="v",...} value` into its parts, enforcing
// quoting and escape rules.
func parseSample(s string) (name string, labels []label, value string, err error) {
	i := 0
	for i < len(s) && isNameChar(s[i], i == 0) {
		i++
	}
	if i == 0 {
		return "", nil, "", fmt.Errorf("sample does not start with a metric name: %q", s)
	}
	name = s[:i]
	if i < len(s) && s[i] == '{' {
		i++
		for {
			for i < len(s) && s[i] == ' ' {
				i++
			}
			if i < len(s) && s[i] == '}' {
				i++
				break
			}
			j := i
			for j < len(s) && isNameChar(s[j], j == i) {
				j++
			}
			if j == i || j >= len(s) || s[j] != '=' {
				return "", nil, "", fmt.Errorf("malformed label in %q", s)
			}
			ln := s[i:j]
			j++ // past '='
			if j >= len(s) || s[j] != '"' {
				return "", nil, "", fmt.Errorf("unquoted label value in %q", s)
			}
			j++
			var val strings.Builder
			for j < len(s) && s[j] != '"' {
				if s[j] == '\\' {
					j++
					if j >= len(s) {
						return "", nil, "", fmt.Errorf("dangling escape in %q", s)
					}
					switch s[j] {
					case '\\', '"', 'n':
					default:
						return "", nil, "", fmt.Errorf("invalid escape \\%c in %q", s[j], s)
					}
				}
				val.WriteByte(s[j])
				j++
			}
			if j >= len(s) {
				return "", nil, "", fmt.Errorf("unterminated label value in %q", s)
			}
			labels = append(labels, label{name: ln, value: val.String()})
			j++ // past closing quote
			if j < len(s) && s[j] == ',' {
				j++
			}
			i = j
		}
	}
	rest := strings.TrimSpace(s[i:])
	if rest == "" {
		return "", nil, "", fmt.Errorf("sample %q has no value", s)
	}
	value = strings.Fields(rest)[0]
	if value != "+Inf" && value != "-Inf" && value != "NaN" {
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return "", nil, "", fmt.Errorf("sample value %q is not a number", value)
		}
	}
	return name, labels, value, nil
}

func isNameChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}
