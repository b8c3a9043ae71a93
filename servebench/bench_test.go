package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"slices"
	"testing"
)

func TestNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {99.5, 100}, {100, 100}, {0.1, 1}, {1, 1}, {1.5, 2}} {
		if got := nearestRank(s, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %d, want %d", c.p, got, c.want)
		}
	}
	if got := nearestRank([]int64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %d, want 7", got)
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("p50 of no samples = %d, want 0", got)
	}
}

func TestSupportedNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, // rank 990, 10 beyond
		{999, 99, false}, // rank 990, 9 beyond
		{1001, 99, true}, // rank 991, 10 beyond
		{20, 50, true},   // rank 10, 10 beyond
		{19, 50, false},  // rank 10, 9 beyond
		{10000, 99.9, true},
		{9999, 99.9, false},
		{0, 50, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if _, err := summarize(make([]int64, 999)).us(99); err == nil {
		t.Error("p99 of 999 samples: want an error")
	}
	if v, err := summarize([]int64{3000, 1000, 2000}).us(50); err == nil || v != 0 {
		t.Errorf("p50 of 3 samples = %v, %v; want an error", v, err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: spanQueryOp, parent: -1, start: 0, end: 100},  // 0
		{name: spanCoalesce, parent: 0, start: 10, end: 30},  // 1
		{name: spanQuery, parent: 0, start: 20, end: 50},     // 2: overlaps 1
		{name: spanAcquire, parent: 0, start: 60, end: 70},   // 3
		{name: spanQuery, parent: 1, start: 12, end: 18},     // 4: grandchild of 0
		{name: spanAdd, parent: 0, start: 95, end: 130},      // 5: runs past its parent
		{name: spanDelete, parent: -1, start: 200, end: 210}, // 6: root, no children
	}
	got := selfTimes(spans)
	// 0: 100 − ([10,50] 40 + [60,70] 10 + [95,100] 5)
	want := []int64{45, 14, 30, 10, 6, 35, 10}
	if !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderIsBoundedAndNilSafe(t *testing.T) {
	var none *recorder
	if i := none.begin(spanQuery, 0, -1); i != -1 {
		t.Fatalf("nil recorder begin = %d, want -1", i)
	}
	none.end(-1)
	r := newRecorder(2)
	a := r.begin(spanQueryOp, 0, -1)
	b := r.begin(spanQuery, 0, a)
	r.end(b)
	r.end(a)
	if c := r.begin(spanQuery, 1, -1); c != -1 || r.dropped != 1 {
		t.Fatalf("full recorder begin = %d dropped %d, want -1 and 1", c, r.dropped)
	}
	if len(r.spans) != 2 || r.spans[1].parent != a || r.spans[0].end < r.spans[1].end {
		t.Fatalf("spans = %+v", r.spans)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.spans = r.spans[:0]
		i := r.begin(spanQueryOp, 1, -1)
		r.end(r.begin(spanQuery, 1, i))
		r.end(i)
	})
	if allocs != 0 {
		t.Errorf("recording allocates %v per op", allocs)
	}
}

const promText = `# HELP fsi_http_request_seconds HTTP request latency, by endpoint.
# TYPE fsi_http_request_seconds histogram
fsi_http_request_seconds_bucket{path="/query",le="6.5536e-05"} 3
fsi_http_request_seconds_bucket{path="/query",le="+Inf"} 4
fsi_http_request_seconds_sum{path="/query"} 0.000250
fsi_http_request_seconds_count{path="/query"} 4
fsi_query_latency_seconds_sum 1.5e-05
fsi_query_latency_seconds_count 3
fsi_cache_hits_total 12
fsi_segments{shard="0"} 3
`

func TestParseProm(t *testing.T) {
	before, err := parseProm(promText)
	if err != nil {
		t.Fatal(err)
	}
	if v := before[`fsi_http_request_seconds_count{path="/query"}`]; v != 4 {
		t.Errorf("count = %v, want 4", v)
	}
	if v := before[`fsi_http_request_seconds_bucket{path="/query",le="+Inf"}`]; v != 4 {
		t.Errorf("+Inf bucket = %v, want 4", v)
	}
	if v := before[`fsi_segments{shard="0"}`]; v != 3 {
		t.Errorf("gauge = %v, want 3", v)
	}
	after := promSample{}
	for k, v := range before {
		after[k] = v
	}
	after[`fsi_http_request_seconds_sum{path="/query"}`] = 0.000250 + 0.000300
	after[`fsi_http_request_seconds_count{path="/query"}`] = 4 + 3
	mean, n := histMean(before, after, "fsi_http_request_seconds", `{path="/query"}`)
	if n != 3 || math.Abs(mean-0.0001) > 1e-12 {
		t.Errorf("histMean = %v over %v, want 1e-4 over 3", mean, n)
	}
	if mean, n := histMean(before, after, "fsi_query_latency_seconds", ""); mean != 0 || n != 0 {
		t.Errorf("histMean with no new observations = %v over %v, want 0 over 0", mean, n)
	}
	if _, err := parseProm("fsi_x notanumber\n"); err == nil {
		t.Error("want an error for a non-numeric value")
	}
	if _, err := parseProm("novalue\n"); err == nil {
		t.Error("want an error for a line without a value")
	}
}

func TestParseGenerated(t *testing.T) {
	for _, c := range []struct {
		s       string
		and     []int32
		not, or int32
		wantErr bool
	}{
		{s: "t3 AND t17", and: []int32{3, 17}, not: -1, or: -1},
		{s: "t17 AND t3", and: []int32{17, 3}, not: -1, or: -1},
		{s: "t5 AND t6 AND NOT t900", and: []int32{5, 6}, not: 900, or: -1},
		{s: "(t5 AND t6) OR t12", and: []int32{5, 6}, not: -1, or: 12},
		{s: "(t5 AND t6 AND NOT t900) OR t12", and: []int32{5, 6}, not: 900, or: 12},
		{s: "(t5 AND t6 OR t12", wantErr: true},
		{s: "t5 AND x6", wantErr: true},
	} {
		q, err := parseGenerated(c.s)
		if (err != nil) != c.wantErr {
			t.Errorf("parseGenerated(%q) error = %v, want error %v", c.s, err, c.wantErr)
			continue
		}
		if err == nil && (!slices.Equal(q.and, c.and) || q.not != c.not || q.or != c.or) {
			t.Errorf("parseGenerated(%q) = %+v", c.s, q)
		}
	}
	a, _ := parseGenerated("t3 AND t17")
	b, _ := parseGenerated("t17 AND t3")
	if a.key() != b.key() {
		t.Errorf("commuted conjunctions have keys %q and %q", a.key(), b.key())
	}
}

func TestEvalQueryAndModel(t *testing.T) {
	ref := &reference{
		postings: [][]uint32{{1, 2, 3, 4}, {2, 3, 5}, {3}, {7}},
		inBase:   []bool{false, true, true, true, true, true, false, true},
		docs:     6,
	}
	q, _ := parseGenerated("(t0 AND t1 AND NOT t2) OR t3")
	if got := evalQuery(q, ref.list); !slices.Equal(got, []uint32{2, 7}) {
		t.Errorf("eval = %v, want [2 7]", got)
	}
	m := newModel(ref)
	for _, c := range []struct {
		o    op
		want int
	}{
		{op{kind: opDelete, doc: 6}, http.StatusNotFound}, // never indexed
		{op{kind: opDelete, doc: 3}, http.StatusOK},
		{op{kind: opDelete, doc: 3}, http.StatusNotFound}, // already gone
		{op{kind: opAdd, doc: 9, terms: []int32{2}}, http.StatusOK},
		{op{kind: opAdd, doc: 2, terms: []int32{3}}, http.StatusOK}, // replaces base doc 2
		{op{kind: opDelete, doc: 9}, http.StatusOK},
		{op{kind: opAdd, doc: 9, terms: []int32{1}}, http.StatusOK},
	} {
		if got := m.apply(c.o); got != c.want {
			t.Errorf("%v doc %d: status %d, want %d", c.o.kind, c.o.doc, got, c.want)
		}
	}
	for term, want := range map[int32][]uint32{0: {1, 4}, 1: {5, 9}, 2: nil, 3: {2, 7}} {
		if got := m.list(term); !slices.Equal(got, want) {
			t.Errorf("final list t%d = %v, want %v", term, got, want)
		}
	}
	body := []byte(`{"query":"q","count":3,"docs":[1,2,3],"truncated":false}`)
	if err := checkReply(body, []uint32{1, 2, 3}); err != nil {
		t.Error(err)
	}
	if err := checkReply(body, []uint32{1, 2, 4}); err == nil {
		t.Error("want a docs mismatch")
	}
	if err := checkReply([]byte(`{"count":0,"docs":[]}`), nil); err != nil {
		t.Error(err)
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(f.Command, []string{"bash", "servebench/run.sh"}) || !slices.Equal(f.Paths, []string{"servebench"}) {
		t.Errorf("command %q paths %q", f.Command, f.Paths)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q %q, benchmark %q %q", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	want := func(specs []metricSpec, bounds bool) []jsonMetric {
		var out []jsonMetric
		for _, s := range specs {
			m := jsonMetric{Name: s.name, Unit: s.unit, Better: s.better}
			if bounds {
				b := s.bound
				m.Bound = &b
			}
			out = append(out, m)
		}
		return out
	}
	same := func(a, b []jsonMetric) bool {
		return slices.EqualFunc(a, b, func(x, y jsonMetric) bool {
			return x.Name == y.Name && x.Unit == y.Unit && x.Better == y.Better &&
				(x.Bound == nil) == (y.Bound == nil) && (x.Bound == nil || *x.Bound == *y.Bound)
		})
	}
	if e := want(endToEnd, true); !same(f.EndToEnd, e) {
		b, _ := json.Marshal(e)
		t.Errorf("end_to_end differs from the catalog; want %s", b)
	}
	if p := want(perLayer, false); !same(f.PerLayer, p) {
		b, _ := json.Marshal(p)
		t.Errorf("per_layer differs from the catalog; want %s", b)
	}
	var setup *jsonMetric
	for i, m := range f.EndToEnd {
		if m.Name == "setup_s" {
			setup = &f.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatal("setup_s must be an end-to-end metric in s, lower is better")
	}
	for _, m := range f.EndToEnd {
		if *m.Bound > *setup.Bound || *m.Bound > 0.25 || *m.Bound <= 0 {
			t.Errorf("%s: bound %v (setup_s has %v; all at most 0.25)", m.Name, *m.Bound, *setup.Bound)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d", f.RunSeconds)
	}
}
