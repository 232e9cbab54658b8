package connector

// SkippedRows returns the number of ragged or malformed records dropped
// so far.
func (r *csvChunkReader) SkippedRows() uint64 { return r.skipped }

// SkippedRows returns the number of malformed lines dropped in pass two.
func (r *jsonlReader) SkippedRows() uint64 { return r.skipped }
