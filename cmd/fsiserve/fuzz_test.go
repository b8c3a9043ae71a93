package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"fastintersect/internal/engine"
	"fastintersect/internal/workload"
)

// fuzzHandler builds a small 2-shard engine behind the full HTTP handler.
// Requests go through httptest.NewRecorder, so no socket is opened.
func fuzzHandler(tb testing.TB) http.Handler {
	tb.Helper()
	cfg := workload.SmallRealConfig()
	cfg.NumDocs, cfg.NumTerms, cfg.NumQueries = 4_000, 200, 0
	eng := engine.New(engine.Config{Shards: 2, CacheSize: 64})
	if err := loadCorpus(eng, workload.NewReal(cfg)); err != nil {
		tb.Fatal(err)
	}
	return newServer(eng).handler()
}

// checkReply asserts what every reply of the query surface must satisfy: a
// status the API documents and a JSON body.
func checkReply(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	switch rec.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
	default:
		t.Fatalf("status %d; body %s", rec.Code, rec.Body)
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("status %d with a body that is not JSON: %q", rec.Code, rec.Body)
	}
}

// checkPage asserts that a page is at most the match count and is marked
// truncated exactly when it is shorter.
func checkPage(t *testing.T, docs []uint32, count int, truncated bool) {
	t.Helper()
	if len(docs) > count {
		t.Fatalf("%d docs for count %d", len(docs), count)
	}
	if truncated != (len(docs) < count) {
		t.Fatalf("truncated=%v with %d docs of %d", truncated, len(docs), count)
	}
}

func FuzzQueryHandler(f *testing.F) {
	h := fuzzHandler(f)
	f.Add("t3 AND t17", "10", "", "")
	f.Add("t17 and (t3)", "", "", "")
	f.Add("(t3 AND t4) OR t90", "-1", "1", "100")
	f.Add("t5 AND NOT t6", "0", "analyze", "0")
	f.Add("NOT t1", "3", "", "")
	f.Add("t3 AND AND", "abc", "2", "-5")
	f.Add("t0 OR t1 OR t2", "-2", "", "99999999999999999999")
	f.Add("", "1", "0", "1")
	f.Fuzz(func(t *testing.T, q, limit, explain, deadline string) {
		vals := url.Values{"q": {q}}
		for k, v := range map[string]string{"limit": limit, "explain": explain, "deadline_ms": deadline} {
			if v != "" {
				vals.Set(k, v)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?"+vals.Encode(), nil))
		checkReply(t, rec)
		if rec.Code != http.StatusOK {
			return
		}
		var qr queryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
			t.Fatalf("200 body does not decode: %v", err)
		}
		checkPage(t, qr.Docs, qr.Count, qr.Truncated)
	})
}

func FuzzQueryBatchHandler(f *testing.F) {
	h := fuzzHandler(f)
	f.Add(`{"queries":["t3 AND t17","t17 t3","NOT t1"]}`)
	f.Add(`{"queries":["t0 OR t1"],"limit":0}`)
	f.Add(`{"queries":["t2 AND NOT t9","t4"],"limit":3,"deadline_ms":5}`)
	f.Add(`{"queries":["t2"],"limit":-1,"deadline_ms":0}`)
	f.Add(`{"queries":["t1"],"deadline_ms":-1}`)
	f.Add(`{"queries":["a"],"limit":-2}`)
	f.Add(`{"queries":[]}`)
	f.Add(`{"queries":["t1"],"extra":1}`)
	f.Add(`{`)
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query/batch", strings.NewReader(body)))
		checkReply(t, rec)
		if rec.Code != http.StatusOK {
			return
		}
		var br batchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
			t.Fatalf("200 body does not decode: %v", err)
		}
		if len(br.Results) == 0 {
			t.Fatal("200 with no results")
		}
		for _, it := range br.Results {
			if it.Error == "" {
				checkPage(t, it.Docs, it.Count, it.Truncated)
			}
		}
	})
}
