package dataframe

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strings"
)

// ReadCSV parses a CSV stream with a header row into a frame.
func ReadCSV(name string, r io.Reader) (*DataFrame, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataframe: reading header: %w", err)
	}
	df := New(name)
	series := make([]*Series, len(header))
	for i, h := range header {
		h = strings.TrimSpace(h)
		if h == "" {
			h = fmt.Sprintf("col_%d", i)
		}
		// Deduplicate header names.
		base, n := h, 1
		for df.HasColumn(h) {
			n++
			h = fmt.Sprintf("%s_%d", base, n)
		}
		series[i] = &Series{Name: h}
		df.byName[h] = i
		df.cols = append(df.cols, series[i])
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataframe: reading row: %w", err)
		}
		for i := range series {
			if i < len(rec) {
				series[i].Cells = append(series[i].Cells, ParseCell(rec[i]))
			} else {
				series[i].Cells = append(series[i].Cells, NullCell())
			}
		}
	}
	return df, nil
}

// WriteCSV serializes the frame with a header row.
func (df *DataFrame) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(df.Columns()); err != nil {
		return err
	}
	for i := 0; i < df.NumRows(); i++ {
		rec := make([]string, df.NumCols())
		for j, c := range df.cols {
			rec[j] = c.Cells[i].S
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the frame to a CSV file.
func (df *DataFrame) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return df.WriteCSV(f)
}
