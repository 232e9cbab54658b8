package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"kglids/internal/core"
	"kglids/internal/embed"
	"kglids/internal/pipeline"
	"kglids/internal/profiler"
	"kglids/internal/schema"
	"kglids/internal/store"
)

// changeSeeds are records of both kinds: an addition, a removal, an update
// (a removal and an addition in one delta), and pipeline records of one
// and of two scripts, with negative and multi-byte varints.
func changeSeeds() []store.ChangeRecord {
	delta := &core.PlatformDelta{
		Profiles: []*profiler.ColumnProfile{{
			Dataset: "ds", Table: "t.csv", Column: "a", Type: embed.Type("int"),
			Stats: profiler.ColumnStats{Total: 10, Missing: 1, Distinct: 7, Min: -2, Max: 9.5, Mean: 3, Std: 1.25},
			Embed: embed.Vector{0.5, -0.25},
		}},
		Edges:           []schema.Edge{{A: "ds/t.csv/a", B: "ds/u.csv/b", Kind: "content", Score: 0.9}},
		TableEmbeddings: map[string]embed.Vector{"ds/t.csv": {1, 0}, "ds/u.csv": {0, 1}},
	}
	update := *delta
	update.Removed = []string{"ds/t.csv", "ds/u.csv"}
	script := pipeline.Script{
		ID:     "kaggle/p1",
		Source: "import pandas as pd\ndf = pd.read_csv('t.csv')\n",
		Meta:   pipeline.Metadata{Author: "a", Dataset: "ds", Task: "classification", Votes: 3, Score: 0.75},
	}
	return []store.ChangeRecord{
		{Kind: store.ChangeTables, Body: delta},
		{Kind: store.ChangeTables, Body: &core.PlatformDelta{Removed: []string{"ds/t.csv"}}},
		{Kind: store.ChangeTables, Body: &update},
		{Kind: store.ChangePipelines, Body: []pipeline.Script{script}},
		{Kind: store.ChangePipelines, Body: []pipeline.Script{{ID: "p2", Meta: pipeline.Metadata{Votes: -300}}, script}},
	}
}

// FuzzDecodeChange throws arbitrary record bodies at DecodeChange, which
// reads bytes a follower receives from its primary. It must never panic,
// and whatever it accepts must re-encode to bytes that decode and encode
// again unchanged.
func FuzzDecodeChange(f *testing.F) {
	for _, rec := range changeSeeds() {
		payload, err := EncodeChange(rec)
		if err != nil {
			f.Fatal(err)
		}
		// An encoded record is canonical: decoding and re-encoding it
		// reproduces its bytes exactly.
		if again := reencode(f, string(rec.Kind), payload); !bytes.Equal(again, payload) {
			f.Fatalf("%s record does not round-trip", rec.Kind)
		}
		f.Add(string(rec.Kind), payload)
	}
	f.Fuzz(func(t *testing.T, kind string, payload []byte) {
		if _, err := DecodeChange(kind, payload); err != nil {
			return
		}
		first := reencode(t, kind, payload)
		if second := reencode(t, kind, first); !bytes.Equal(first, second) {
			t.Fatalf("decode→encode→decode of a %s record is not stable", kind)
		}
	})
}

// TestDecodeChangeRejectsInflatedCounts: a count larger than the payload
// can hold at the element's smallest encoding is rejected before anything
// is allocated for it. Bounding at one byte per element let a 1 MiB body
// claiming 2^20 quads allocate 192 MiB.
func TestDecodeChangeRejectsInflatedCounts(t *testing.T) {
	zeros := make([]byte, 512)
	for _, c := range []struct {
		kind    string
		payload []byte
	}{
		{"tables", append(binary.AppendUvarint(nil, 513), zeros...)},
		{"tables", append(binary.AppendUvarint([]byte{0}, 11), zeros...)},
		{"tables", append(binary.AppendUvarint([]byte{0, 0}, 47), zeros...)},
		{"tables", append(binary.AppendUvarint([]byte{0, 0, 0}, 257), zeros...)},
		{"pipelines", append(binary.AppendUvarint(nil, 37), zeros...)},
	} {
		if _, err := DecodeChange(c.kind, c.payload); err == nil || !strings.Contains(err.Error(), "implausible count") {
			t.Errorf("%s record with an inflated count: err = %v", c.kind, err)
		}
	}
}

// TestDecodeChangeRetiredKinds: a record of a kind the primary logged
// before one record per mutation tells the follower to re-seed, whatever
// its body.
func TestDecodeChangeRetiredKinds(t *testing.T) {
	for _, kind := range []string{"add", "remove", "remove-graph", "platform-delta"} {
		_, err := DecodeChange(kind, []byte{0})
		if !errors.Is(err, ErrRetiredChange) || !strings.Contains(err.Error(), "re-seed from a snapshot") {
			t.Errorf("%s record: err = %v, want ErrRetiredChange", kind, err)
		}
	}
	if _, err := DecodeChange("tables", nil); errors.Is(err, ErrRetiredChange) {
		t.Errorf("a current kind reads as retired: %v", err)
	}
}

// TestEncodeChangeSizesExactly: EncodeChange sizes its buffer from
// deltaSize and scriptsSize, so each must be the exact length of what the
// encoder writes, multi-byte varints included. (FuzzDecodeChange checks the
// same on every record it re-encodes.)
func TestEncodeChangeSizesExactly(t *testing.T) {
	long := strings.Repeat("x", 300)
	recs := append(changeSeeds(),
		store.ChangeRecord{Kind: store.ChangeTables, Body: &core.PlatformDelta{
			Removed: []string{long, ""},
			Profiles: []*profiler.ColumnProfile{{Column: long, Embed: make(embed.Vector, 200),
				Stats: profiler.ColumnStats{Total: 1 << 20, Missing: 300, Distinct: 1 << 14}}},
			TableEmbeddings: map[string]embed.Vector{long: make(embed.Vector, 130)},
		}},
		store.ChangeRecord{Kind: store.ChangePipelines, Body: []pipeline.Script{
			{ID: long, Source: long, Meta: pipeline.Metadata{Votes: 1 << 40}},
			{Meta: pipeline.Metadata{Votes: -1 << 40}},
		}})
	for _, rec := range recs {
		payload, err := EncodeChange(rec)
		if err != nil {
			t.Fatal(err)
		}
		checkEncodedSize(t, rec, payload)
	}
	// A body that does not match its kind is refused, not guessed at.
	if _, err := EncodeChange(store.ChangeRecord{Kind: store.ChangePipelines, Body: &core.PlatformDelta{}}); err == nil {
		t.Error("a pipeline record carrying a delta encoded")
	}
}

// checkEncodedSize fails unless the size EncodeChange reserved for a record
// is the length it wrote.
func checkEncodedSize(t testing.TB, rec store.ChangeRecord, payload []byte) {
	t.Helper()
	var want int
	switch body := rec.Body.(type) {
	case *core.PlatformDelta:
		want = deltaSize(body)
	case []pipeline.Script:
		want = scriptsSize(body)
	}
	if len(payload) != want {
		t.Fatalf("%s record encodes to %d bytes, sized as %d", rec.Kind, len(payload), want)
	}
}

// reencode decodes a record body and encodes it again.
func reencode(t testing.TB, kind string, payload []byte) []byte {
	t.Helper()
	c, err := DecodeChange(kind, payload)
	if err != nil {
		t.Fatalf("decode %s: %v", kind, err)
	}
	rec := store.ChangeRecord{Kind: c.Kind, Body: any(c.Delta)}
	if c.Kind == store.ChangePipelines {
		rec.Body = c.Scripts
	}
	out, err := EncodeChange(rec)
	if err != nil {
		t.Fatalf("encode %s: %v", kind, err)
	}
	checkEncodedSize(t, rec, out)
	return out
}
