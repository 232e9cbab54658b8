package client_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"kglids/client"
)

// TestClientResponseTooLarge: a body one byte past MaxResponseBody fails
// with ErrResponseTooLarge naming the limit, instead of being truncated to
// the limit and failing as a JSON syntax error. The bound holds for a
// streamed identity body of unknown length, for a gzip body whose trailer
// declares the oversize length, and for one whose trailer understates it;
// and a follower given such a page stops with the error.
func TestClientResponseTooLarge(t *testing.T) {
	oversize := func() []byte {
		var z bytes.Buffer
		zw, err := gzip.NewWriterLevel(&z, gzip.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		chunk := make([]byte, 1<<20)
		for n := 0; n <= client.MaxResponseBody; n += len(chunk) {
			zw.Write(chunk[:min(len(chunk), client.MaxResponseBody+1-n)])
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		return z.Bytes()
	}()
	understated := bytes.Clone(oversize)
	binary.LittleEndian.PutUint32(understated[len(understated)-4:], 100)

	for _, c := range []struct {
		name string
		body []byte // gzip; nil streams identity
	}{
		{"identity", nil},
		{"gzip", oversize},
		{"gzip-understated", understated},
	} {
		t.Run(c.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if c.body != nil {
					w.Header().Set("Content-Encoding", "gzip")
					w.Write(c.body)
					return
				}
				chunk := bytes.Repeat([]byte(" "), 1<<20)
				for n := 0; n <= client.MaxResponseBody; n += len(chunk) {
					if _, err := w.Write(chunk[:min(len(chunk), client.MaxResponseBody+1-n)]); err != nil {
						return // the client stopped reading
					}
				}
			}))
			defer ts.Close()
			cl, err := client.New(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			_, err = cl.Stats(context.Background())
			if !errors.Is(err, client.ErrResponseTooLarge) {
				t.Fatalf("err = %v, want ErrResponseTooLarge", err)
			}
			if !strings.Contains(err.Error(), strconv.Itoa(client.MaxResponseBody)) {
				t.Fatalf("error %q does not name the %d-byte limit", err, client.MaxResponseBody)
			}

			// Fetching the same page again cannot succeed: a follower stops
			// instead of retrying it forever.
			f := &client.Follower{Client: cl, Apply: func(client.ChangeEntry) error { return nil }}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := f.Run(ctx); !errors.Is(err, client.ErrResponseTooLarge) {
				t.Fatalf("Follower.Run = %v, want ErrResponseTooLarge", err)
			}
		})
	}
}
