package embed

import (
	"strings"
	"unicode"
)

// WordModel produces label embeddings for column names. It substitutes for
// the paper's GloVe + WordNet combination: a built-in synonym-set lexicon
// covers common data-science column vocabulary (so "gender" ~ "sex",
// "target" ~ "label"), and character-trigram hashing covers out-of-
// vocabulary tokens (so "area_sq_ft" ~ "area_sq_m").
type WordModel struct {
	synsetOf map[string]int
}

// synsets groups words that the label model should place close together.
// Each group acts like a shared WordNet synset / GloVe neighborhood.
var synsets = [][]string{
	{"sex", "gender"},
	{"target", "label", "class", "outcome", "y"},
	{"age", "years", "yrs"},
	{"name", "title", "fullname"},
	{"id", "identifier", "key", "code", "uid"},
	{"price", "cost", "amount", "fare", "fee", "charge"},
	{"salary", "income", "wage", "earnings", "pay"},
	{"city", "town", "municipality"},
	{"country", "nation", "state"},
	{"region", "area", "zone", "district"},
	{"date", "day", "time", "timestamp", "datetime"},
	{"year", "yr"},
	{"month", "mon"},
	{"latitude", "lat"},
	{"longitude", "lon", "lng", "long"},
	{"address", "street", "location"},
	{"phone", "telephone", "mobile", "tel"},
	{"email", "mail"},
	{"weight", "mass", "wt"},
	{"height", "stature", "ht"},
	{"temperature", "temp"},
	{"count", "number", "num", "quantity", "qty", "total"},
	{"rate", "ratio", "percentage", "percent", "pct", "frac"},
	{"score", "rating", "grade", "rank"},
	{"revenue", "sales", "turnover"},
	{"profit", "margin", "gain"},
	{"customer", "client", "user", "member", "patient"},
	{"product", "item", "goods", "sku"},
	{"category", "type", "kind", "group", "segment"},
	{"description", "desc", "comment", "note", "text", "review"},
	{"status", "flag", "active"},
	{"survived", "alive", "survival"},
	{"death", "died", "deceased", "mortality"},
	{"disease", "illness", "condition", "diagnosis"},
	{"heart", "cardiac"},
	{"blood", "serum"},
	{"pressure", "bp"},
	{"glucose", "sugar"},
	{"cholesterol", "chol"},
	{"smoker", "smoking", "tobacco"},
	{"education", "degree", "schooling"},
	{"occupation", "job", "profession", "work"},
	{"married", "marital", "spouse"},
	{"children", "kids", "dependents"},
	{"duration", "length", "period", "term"},
	{"distance", "dist", "mileage"},
	{"speed", "velocity"},
	{"company", "organization", "org", "employer", "firm"},
	{"department", "dept", "division"},
	{"balance", "account"},
	{"loan", "credit", "debt"},
	{"population", "pop", "inhabitants"},
	{"team", "club", "squad"},
	{"player", "athlete"},
	{"game", "match"},
	{"win", "victory", "won"},
	{"loss", "defeat", "lost"},
	{"gdp", "economy"},
	{"language", "lang", "tongue"},
	{"capital", "metropolis"},
	{"gross", "net"},
	{"vote", "votes", "ballot"},
	{"first", "fname", "given"},
	{"last", "lname", "surname", "family"},
	{"zip", "zipcode", "postal", "postcode"},
}

var seedSynset, seedWord = Hash64("synset:"), Hash64("word:")

// NewWordModel returns the built-in label model.
func NewWordModel() *WordModel {
	m := &WordModel{synsetOf: map[string]int{}}
	for i, group := range synsets {
		for _, w := range group {
			m.synsetOf[w] = i
		}
	}
	return m
}

// Embed returns the WordDim-dimensional embedding of a single word.
// In-lexicon words get their synset's base vector plus a small
// word-specific perturbation; other words are encoded by character
// trigrams so that morphologically close words stay close.
func (m *WordModel) Embed(word string) Vector {
	w := strings.ToLower(strings.TrimSpace(word))
	v := NewVector(WordDim)
	if w == "" {
		return v
	}
	if syn, ok := m.synsetOf[w]; ok {
		addHash(v, fnvInt(seedSynset, syn), 1.0)
		addHash(v, fnv1a(seedWord, w), 0.25)
		v.Normalize()
		return v
	}
	addTrigrams(v, w, 1.0)
	addHash(v, fnv1a(seedWord, w), 0.5)
	v.Normalize()
	return v
}

// EmbedLabel tokenizes a column name (snake_case, camelCase, digits
// stripped) and averages the token embeddings.
func (m *WordModel) EmbedLabel(label string) Vector {
	toks := TokenizeLabel(label)
	v := NewVector(WordDim)
	if len(toks) == 0 {
		return v
	}
	for _, t := range toks {
		v.Add(m.Embed(t))
	}
	v.Scale(1 / float64(len(toks)))
	v.Normalize()
	return v
}

// TokenizeLabel splits an identifier-like label into lowercase word tokens:
// separators are non-alphanumerics, camelCase boundaries, and digit runs.
func TokenizeLabel(s string) []string {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	runes := []rune(s)
	for i, r := range runes {
		switch {
		case unicode.IsLetter(r):
			if i > 0 && unicode.IsUpper(r) && unicode.IsLower(runes[i-1]) {
				flush()
			}
			cur.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return toks
}
