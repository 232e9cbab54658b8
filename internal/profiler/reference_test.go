package profiler

import (
	"kglids/internal/dataframe"
	"kglids/internal/embed"
)

// The reference profiler states Algorithm 2 over whole columns: every
// statistic comes from all of a column's cells at once. While its bounds
// cover a column, the one-pass ColumnAccumulator must give the same
// profile, byte for byte.

// referenceProfileColumn profiles one column from all its cells.
func referenceProfileColumn(p *Profiler, dataset, table string, s *dataframe.Series) *ColumnProfile {
	fgt, emb := p.EmbedColumn(s)
	cp := &ColumnProfile{
		Dataset: dataset,
		Table:   table,
		Column:  s.Name,
		Type:    fgt,
		Stats: ColumnStats{
			Total:    s.Len(),
			Missing:  s.NullCount(),
			Distinct: s.Distinct(),
		},
		Embed: emb,
	}
	switch fgt {
	case embed.TypeInt, embed.TypeFloat:
		cp.Stats.Min, cp.Stats.Max = s.MinMax()
		cp.Stats.Mean = s.Mean()
		cp.Stats.Std = s.Std()
	case embed.TypeBoolean:
		cp.Stats.TrueRatio = booleanTrueRatio(s)
	}
	return cp
}

// referenceProfiles profiles every column of every table, in (table,
// column) order.
func referenceProfiles(p *Profiler, tables []Table) []*ColumnProfile {
	var out []*ColumnProfile
	for _, t := range tables {
		for i := 0; i < t.Frame.NumCols(); i++ {
			out = append(out, referenceProfileColumn(p, t.Dataset, t.Frame.Name, t.Frame.ColumnAt(i)))
		}
	}
	return out
}

// booleanTrueRatio computes the fraction of non-null values that are true
// for a column inferred as boolean. Unlike Series.TrueRatio, it also counts
// 0/1 numeric encodings, which the type inferencer classifies as boolean.
func booleanTrueRatio(s *dataframe.Series) float64 {
	total, trues := 0, 0
	for _, c := range s.Cells {
		if c.IsNull() {
			continue
		}
		total++
		if (c.Kind == dataframe.Boolean || c.Kind == dataframe.Number) && c.F == 1 {
			trues++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(trues) / float64(total)
}
