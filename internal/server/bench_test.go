package server

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"

	_ "repro/internal/suites/parboil"
)

// BenchmarkHTTPSweep drives one /v1/sweep request through httptest to its
// last response byte, in the three states the store can be in:
//
//   - cold: nothing stored, so every run executes;
//   - warm: the document is stored, so the request is one verified read;
//   - reuse: every run is stored but the document is not, so the request
//     renders the document from the stored runs and stores it.
//
// The gap between warm and reuse is what storing the rendered document
// beside its runs saves on every repeated sweep.
func BenchmarkHTTPSweep(b *testing.B) {
	const body = `{"benchmarks": ["rodinia/lud", "parboil/cutcp"], "size": "small"}`
	serve := func(b *testing.B) (*Server, func(wantCache string) http.Header) {
		s, ts := newTestServer(b, func(c *Config) { c.Logf, c.GCInterval = nil, -1 })
		client := ts.Client()
		return s, func(wantCache string) http.Header {
			resp, err := client.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			n, err := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d, err %v", resp.StatusCode, err)
			}
			if got := resp.Header.Get(HeaderCache); got != wantCache {
				b.Fatalf("%s = %q, want %s", HeaderCache, got, wantCache)
			}
			b.SetBytes(n)
			return resp.Header
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			_, post := serve(b)
			b.StartTimer()
			post("miss")
		}
	})
	b.Run("warm", func(b *testing.B) {
		_, post := serve(b)
		post("miss")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post("hit")
		}
	})
	b.Run("reuse", func(b *testing.B) {
		s, post := serve(b)
		post("miss")
		req := SweepRequest{Benchmarks: []string{"rodinia/lud", "parboil/cutcp"}, Size: "small"}
		p, err := resolveSweep(&req, 1)
		if err != nil {
			b.Fatal(err)
		}
		runs := strconv.Itoa(len(experiments.RunKeys(p.size, p.opts)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := s.cache.Remove(p.fingerprint); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if got := post("miss").Get(HeaderResumed); got != runs {
				b.Fatalf("%s = %q, want every one of the %s runs", HeaderResumed, got, runs)
			}
		}
	})
}
