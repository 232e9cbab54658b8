package client

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// ErrCursorGone reports that the follower's cursor fell below the
// primary's compaction floor (or pointed beyond its head after a primary
// reset): the incremental stream cannot resume, and the follower must
// re-seed from a fresh snapshot.
var ErrCursorGone = errors.New("client: changelog cursor not available on primary")

// Follower tails a primary's mutation changelog, applying each record in
// sequence order. It owns catch-up pacing (immediate re-fetch while
// behind, polling at the configured interval once at head) and cursor
// bookkeeping; record decoding and application are delegated to Apply.
type Follower struct {
	// Client is the connection to the primary.
	Client *Client
	// Cursor is the position already applied (typically the snapshot's
	// changelog position). Run advances it as records apply.
	Cursor uint64
	// Poll is the at-head poll interval — the staleness bound while the
	// primary is idle. <= 0 defaults to 500ms.
	Poll time.Duration
	// Limit bounds each changelog page; 0 means the server default.
	Limit int
	// Apply applies one record to the local platform. An error stops the
	// follower and is returned from Run.
	Apply func(ChangeEntry) error
	// OnProgress, when non-nil, is invoked after each applied page with
	// the current cursor and the primary head observed on that page.
	OnProgress func(cursor, head uint64)
}

// Run tails the changelog until ctx is done (returns ctx.Err()), Apply
// fails, the cursor is lost to compaction (returns an error wrapping
// ErrCursorGone; the caller should re-seed from a snapshot and restart),
// or a page is longer than MaxResponseBody (returns an error wrapping
// ErrResponseTooLarge; a smaller Limit fetches it).
func (f *Follower) Run(ctx context.Context) error {
	poll := f.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	for {
		page, err := f.Client.Changelog(ctx, f.Cursor, f.Limit)
		if err != nil {
			if errors.Is(err, ErrCursorGone) || errors.Is(err, ErrResponseTooLarge) || ctx.Err() != nil {
				return err
			}
			// Transient transport or server error: retry at poll cadence.
			if err := sleepBackoff(ctx, poll); err != nil {
				return err
			}
			continue
		}
		for _, e := range page.Entries {
			if e.Seq != f.Cursor+1 {
				return fmt.Errorf("client: changelog gap: applied through %d, next record is %d", f.Cursor, e.Seq)
			}
			if err := f.Apply(e); err != nil {
				return fmt.Errorf("client: apply changelog record %d (%s): %w", e.Seq, e.Kind, err)
			}
			f.Cursor = e.Seq
		}
		if f.OnProgress != nil {
			f.OnProgress(f.Cursor, page.Head)
		}
		if page.AtHead {
			if err := sleepBackoff(ctx, poll); err != nil {
				return err
			}
		}
	}
}
