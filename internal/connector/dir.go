package connector

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// dirSource walks a filesystem directory for CSV/TSV files laid out as
// lake/<dataset>/<table>.csv: dataset = parent directory base name,
// table = base filename. Both CLIs' -lake DIR is shorthand for it.
type dirSource struct {
	root string
	opts Options
}

func init() {
	Default.Register("dir", func(u *URI, opts Options) (Source, error) {
		root := u.Opaque
		if root == "" {
			return nil, fmt.Errorf("connector: dir:// needs a path (dir:///data/lake)")
		}
		info, err := os.Stat(root)
		if err != nil {
			return nil, fmt.Errorf("connector: dir://%s: %w", root, err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("connector: dir://%s: not a directory", root)
		}
		return &dirSource{root: root, opts: opts}, nil
	})
}

func (s *dirSource) Tables(ctx context.Context) ([]TableRef, error) {
	var refs []TableRef
	err := filepath.Walk(s.root, func(path string, info os.FileInfo, err error) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err != nil || info.IsDir() {
			return err
		}
		switch strings.ToLower(filepath.Ext(path)) {
		case ".csv", ".tsv":
		default:
			return nil
		}
		refs = append(refs, TableRef{
			Dataset: filepath.Base(filepath.Dir(path)),
			Table:   filepath.Base(path),
			Locator: path,
		})
		return nil
	})
	if err != nil {
		mErrors.WithLabelValues("dir", "open").Inc()
		return nil, err
	}
	return refs, nil
}

func (s *dirSource) Open(ctx context.Context, ref TableRef) (TableReader, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f, err := os.Open(ref.Locator)
	if err != nil {
		mErrors.WithLabelValues("dir", "open").Inc()
		return nil, err
	}
	comma := ','
	if strings.EqualFold(filepath.Ext(ref.Locator), ".tsv") {
		comma = '\t'
	}
	r, err := newCSVChunkReader("dir", ref.Locator, f, comma, s.opts.chunkRows())
	if err != nil {
		mErrors.WithLabelValues("dir", "open").Inc()
		return nil, err
	}
	return r, nil
}
