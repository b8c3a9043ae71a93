package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"fastintersect/internal/admission"
	"fastintersect/internal/sets"
	"fastintersect/internal/workload"
)

// TestServePageThenAll pins the paged /query path over the prefix cache: a
// limit=3 page caches a 3-doc prefix, and a later limit=-1 request for the
// same query must still return every doc — not the cached page — while a
// repeat of the small page is served from the now complete entry.
func TestServePageThenAll(t *testing.T) {
	ts, _ := testServer(t, testCorpus(t), 4)
	q := workload.TermName(0) + " OR " + workload.TermName(5)
	fetch := func(limit int) queryResponse {
		t.Helper()
		code, _, body := get(t, ts.URL+"/query?"+url.Values{"q": {q}, "limit": {strconv.Itoa(limit)}}.Encode())
		if code != http.StatusOK {
			t.Fatalf("limit=%d: HTTP %d: %s", limit, code, body)
		}
		var qr queryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		return qr
	}
	page := fetch(3)
	if page.Count <= 3 {
		t.Fatalf("query %q matches %d docs; the test needs more than 3", q, page.Count)
	}
	if len(page.Docs) != 3 || !page.Truncated || page.Cached {
		t.Fatalf("limit=3: docs %v truncated=%v cached=%v", page.Docs, page.Truncated, page.Cached)
	}
	all := fetch(-1)
	if all.Truncated || all.Count != page.Count || len(all.Docs) != page.Count || !sets.IsSorted(all.Docs) {
		t.Fatalf("limit=-1 after a limit=3 page: %d docs truncated=%v count=%d, want all %d ascending",
			len(all.Docs), all.Truncated, all.Count, page.Count)
	}
	if !sets.Equal(all.Docs[:3], page.Docs) {
		t.Fatalf("limit=3 page %v is not the prefix of the full result %v", page.Docs, all.Docs[:3])
	}
	if again := fetch(3); !again.Cached || !sets.Equal(again.Docs, page.Docs) {
		t.Fatalf("repeat limit=3 page: cached=%v docs=%v", again.Cached, again.Docs)
	}
}

// TestServeBatchPageThenAll is TestServePageThenAll for POST /query/batch: a
// limit-3 batch, then an unlimited batch of the same queries, which must
// return every doc of every query.
func TestServeBatchPageThenAll(t *testing.T) {
	ts, eng := testServer(t, testCorpus(t), 4)
	queries := []string{
		workload.TermName(1) + " OR " + workload.TermName(7),
		workload.TermName(2),
	}
	post := func(limit int) batchResponse {
		t.Helper()
		body, _ := json.Marshal(batchRequest{Queries: queries, Limit: &limit})
		resp, err := http.Post(ts.URL+"/query/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("limit=%d: HTTP %d", limit, resp.StatusCode)
		}
		var br batchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
		return br
	}
	page, all := post(3), post(-1)
	for i, q := range queries {
		want, err := eng.QueryCount(q)
		if err != nil {
			t.Fatal(err)
		}
		full := all.Results[i]
		if full.Error != "" || full.Truncated || full.Count != want.Count || len(full.Docs) != want.Count {
			t.Fatalf("%q unlimited after a limit-3 batch: %d docs truncated=%v count=%d err=%q, want all %d",
				q, len(full.Docs), full.Truncated, full.Count, full.Error, want.Count)
		}
		p := page.Results[i]
		if want.Count > 3 && (len(p.Docs) != 3 || !p.Truncated || !sets.Equal(p.Docs, full.Docs[:3])) {
			t.Fatalf("%q limit-3 batch: docs %v truncated=%v, want the first 3 of %d", q, p.Docs, p.Truncated, want.Count)
		}
	}
}

// TestDeadlineOverflowRejected pins the deadline_ms overflow check on both
// query endpoints: a millisecond count whose conversion to a duration would
// overflow (and wrap to a sub-millisecond deadline) is a 400, like any
// other bad deadline, not a silently tiny budget.
func TestDeadlineOverflowRejected(t *testing.T) {
	ts, _ := slowTestServer(t, 0, admission.Config{MaxInflight: 2}, 0)
	for _, v := range []string{"18446744073710", "9223372036855"} {
		code, _, body := get(t, ts.URL+"/query?"+url.Values{"q": {"t0"}, "deadline_ms": {v}}.Encode())
		if code != http.StatusBadRequest || !bytes.Contains(body, []byte("bad deadline_ms")) {
			t.Errorf("GET deadline_ms=%s: HTTP %d %s, want 400 bad deadline_ms", v, code, body)
		}
		resp, err := http.Post(ts.URL+"/query/batch", "application/json",
			bytes.NewReader([]byte(`{"queries":["t0"],"deadline_ms":`+v+`}`)))
		if err != nil {
			t.Fatal(err)
		}
		var er errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(er.Error, "bad deadline_ms") {
			t.Errorf("batch deadline_ms=%s: HTTP %d %q, want 400 bad deadline_ms", v, resp.StatusCode, er.Error)
		}
	}
	// The largest representable budget is still accepted.
	code, _, body := get(t, ts.URL+"/query?"+url.Values{"q": {"t0"}, "deadline_ms": {"9223372036854"}}.Encode())
	if code != http.StatusOK {
		t.Errorf("deadline_ms at the representable maximum: HTTP %d %s, want 200", code, body)
	}
}
