package profiler

import (
	"strconv"
	"strings"

	"kglids/internal/dataframe"
	"kglids/internal/embed"
)

// TypeInferencer classifies columns into the seven fine-grained types of
// paper Section 3.2: int, float, boolean, date, named_entity,
// natural_language, and string.
type TypeInferencer struct {
	ner   *NER
	words *embed.WordModel
	// threshold is the fraction of sampled values that must agree for a
	// specialized type to win.
	threshold float64
}

// NewTypeInferencer returns the default inferencer.
func NewTypeInferencer() *TypeInferencer {
	return &TypeInferencer{ner: NewNER(), words: embed.NewWordModel(), threshold: 0.8}
}

// stopwords used by the natural-language detector; their presence marks
// prose rather than codes or entities.
var stopwords = map[string]bool{
	"the": true, "a": true, "an": true, "and": true, "or": true, "of": true,
	"to": true, "in": true, "is": true, "was": true, "it": true, "this": true,
	"that": true, "for": true, "with": true, "on": true, "as": true,
	"are": true, "be": true, "at": true, "by": true, "not": true,
	"very": true, "good": true, "bad": true, "great": true, "i": true,
	"you": true, "we": true, "they": true, "but": true, "so": true,
	"my": true, "his": true, "her": true, "their": true, "our": true,
}

// InferSampleSize is the number of leading non-null cells type inference
// examines. The streaming profiler retains exactly this prefix, so
// streamed and in-memory columns always infer the same type.
const InferSampleSize = 500

// Infer classifies a column (Algorithm 2 line 6). At most InferSampleSize
// values are examined.
func (ti *TypeInferencer) Infer(s *dataframe.Series) embed.Type {
	return ti.InferCells(s.Cells)
}

// InferCells classifies a column given its cells (or, equivalently, any
// prefix containing the first InferSampleSize non-null cells).
func (ti *TypeInferencer) InferCells(cells []dataframe.Cell) embed.Type {
	// The sample is the first InferSampleSize non-null cells: those of
	// cells[:end].
	n, ints, floats, bools, end := 0, 0, 0, 0, len(cells)
	for i, c := range cells {
		if c.IsNull() {
			continue
		}
		if n == InferSampleSize {
			end = i
			break
		}
		n++
		switch c.Kind {
		case dataframe.Boolean:
			bools++
		case dataframe.Number:
			if c.F == float64(int64(c.F)) && !strings.ContainsAny(c.S, ".eE") {
				ints++
			} else {
				floats++
			}
		}
	}
	if n == 0 {
		return embed.TypeString
	}
	sample, total := cells[:end], float64(n)
	if float64(bools)/total >= ti.threshold {
		return embed.TypeBoolean
	}
	// Columns of 0/1 integers are booleans too.
	if float64(ints+bools)/total >= ti.threshold && isZeroOne(sample) {
		return embed.TypeBoolean
	}
	if float64(ints)/total >= ti.threshold && floats == 0 {
		return embed.TypeInt
	}
	if float64(ints+floats)/total >= ti.threshold {
		return embed.TypeFloat
	}
	dates, entities, natural := 0, 0, 0
	for _, c := range sample {
		if c.IsNull() {
			continue
		}
		if _, ok := embed.ParseDate(c.S); ok {
			dates++
			continue
		}
		if _, ok := ti.ner.Recognize(c.S); ok {
			entities++
			continue
		}
		if ti.isNaturalLanguage(c.S) {
			natural++
		}
	}
	switch {
	case float64(dates)/total >= ti.threshold:
		return embed.TypeDate
	case float64(entities)/total >= ti.threshold:
		return embed.TypeNamedEntity
	case float64(natural)/total >= 0.5:
		return embed.TypeNaturalLanguage
	default:
		return embed.TypeString
	}
}

// isNaturalLanguage approximates the paper's "corresponding word embeddings
// exist for the tokens" test: prose has several tokens, a stopword, and
// mostly alphabetic words.
func (ti *TypeInferencer) isNaturalLanguage(v string) bool {
	toks := strings.Fields(strings.ToLower(v))
	if len(toks) < 3 {
		return false
	}
	alpha, stops := 0, 0
	for _, t := range toks {
		t = strings.Trim(t, ".,!?;:'\"()")
		if t == "" {
			continue
		}
		if isAlphaWord(t) {
			alpha++
		}
		if stopwords[t] {
			stops++
		}
	}
	return stops >= 1 && float64(alpha) >= 0.7*float64(len(toks))
}

func isAlphaWord(s string) bool {
	for _, r := range s {
		if (r < 'a' || r > 'z') && r != '-' && r != '\'' {
			return false
		}
	}
	return len(s) > 0
}

// isZeroOne reports whether every non-null cell reads as 0 or 1.
func isZeroOne(cells []dataframe.Cell) bool {
	for _, c := range cells {
		if c.IsNull() {
			continue
		}
		v := c.S
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			lv := strings.ToLower(strings.TrimSpace(v))
			if lv != "true" && lv != "false" && lv != "yes" && lv != "no" {
				return false
			}
			continue
		}
		if f != 0 && f != 1 {
			return false
		}
	}
	return true
}
