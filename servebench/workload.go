package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"fastintersect/internal/workload"
	"fastintersect/internal/xhash"
)

// workloadSpec is one traffic mix and the corpus it runs on. Every run starts
// a fresh fsiserve with -docs/-terms/-seed (plus -compact where set), so the
// server builds the same corpus the benchmark generates for its oracle.
type workloadSpec struct {
	name string
	why  string
	docs uint32
	// terms is the vocabulary size; baseQueries the number of base
	// conjunctions the benchmark's copy of the corpus generates (the server
	// does not use them: postings are generated before queries).
	terms       int
	baseQueries int
	// compact is fsiserve's -compact (0 keeps the server default).
	compact int
	// or/not are the query stream's operator fractions.
	or, not float64
	// tracedOps is the least a traced server's timed loop sends: churn needs
	// about 40k ops for its shards to freeze past four frozen segments and
	// run tiered merges.
	tracedOps int
}

var workloads = []workloadSpec{
	{
		name: "hot",
		why:  "repeated web queries whose canonical forms all fit the result cache, so time goes to HTTP, parsing, admission and JSON, not kernels",
		docs: 200_000, terms: 20_000, baseQueries: 1_000, or: 0.10, not: 0.05,
	},
	{
		name: "cold",
		why:  "never-repeating OR/AND NOT queries on a 1M-doc corpus, so both caches miss and time goes to kernels, union, difference and shard merge",
		docs: 1_000_000, terms: 50_000, baseQueries: 20_000, or: 0.50, not: 0.30,
	},
	{
		name: "churn",
		why:  "adds and deletes beside queries with -compact 1000, so the cache goes stale and queries pay for segment unions, tombstones and merges",
		docs: 200_000, terms: 20_000, baseQueries: 1_000, compact: 1000, or: 0.10, not: 0.05,
		tracedOps: 40_000,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

const (
	// queryLimit is the limit= every /query sends, as a search front end
	// asking for the first page does.
	queryLimit = 10
	// hotCycle is the length of hot's query cycle: two passes over the 1,000
	// base conjunctions, about 1,300 canonical forms, well inside the
	// server's 4,096-entry result cache.
	hotCycle = 2_000
	// tailPairs is the number of add+delete pairs hot and cold send after
	// the timed phase: enough writes for a steady p99, too few postings to
	// trigger a compaction at fsiserve's default threshold.
	tailPairs = 5_000
	// checkQueries is the size of churn's fixed final-state query sample.
	checkQueries = 200
	// warmQueries warm connections and lazy set-up before timing (cold,
	// churn; hot warms with one full pass over its cycle).
	warmQueries = 300
	// opsPerSecond sizes the pre-generated op lists of the workloads that do
	// not cycle: several times the throughput any of them reaches today. A
	// client that runs out stops early and throughput is taken over the time
	// it actually ran.
	opsPerSecond = 12_000
	numClients   = 2
)

// query is one generated boolean query, kept in structured form for the
// oracle: (AND of and) [AND NOT not] [OR or]. Absent terms are -1.
type query struct {
	text    string
	and     []int32
	not, or int32
}

// parseGenerated reads the restricted syntax workload.QueryStream emits:
// "tA AND tB ...", optionally followed by " AND NOT tN", optionally wrapped
// as "(...) OR tM". It is deliberately independent of the server's parser.
func parseGenerated(s string) (query, error) {
	q := query{text: s, not: -1, or: -1}
	body := s
	if strings.HasPrefix(body, "(") {
		i := strings.LastIndex(body, ") OR ")
		if i < 0 {
			return q, fmt.Errorf("query %q: '(' without ') OR '", s)
		}
		t, err := parseTerm(body[i+len(") OR "):])
		if err != nil {
			return q, fmt.Errorf("query %q: %w", s, err)
		}
		q.or = t
		body = body[1:i]
	}
	if i := strings.Index(body, " AND NOT "); i >= 0 {
		t, err := parseTerm(body[i+len(" AND NOT "):])
		if err != nil {
			return q, fmt.Errorf("query %q: %w", s, err)
		}
		q.not = t
		body = body[:i]
	}
	for _, part := range strings.Split(body, " AND ") {
		t, err := parseTerm(part)
		if err != nil {
			return q, fmt.Errorf("query %q: %w", s, err)
		}
		q.and = append(q.and, t)
	}
	return q, nil
}

func parseTerm(s string) (int32, error) {
	if !strings.HasPrefix(s, "t") {
		return 0, fmt.Errorf("term %q is not t<rank>", s)
	}
	v, err := strconv.ParseInt(s[1:], 10, 32)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("term %q is not t<rank>", s)
	}
	return int32(v), nil
}

// key is q's structure with the AND terms sorted and deduplicated: queries
// with equal keys have the same canonical form on the server.
func (q query) key() string {
	and := slices.Clone(q.and)
	slices.Sort(and)
	and = slices.Compact(and)
	var b strings.Builder
	for _, t := range and {
		b.WriteString(strconv.Itoa(int(t)))
		b.WriteByte('&')
	}
	fmt.Fprintf(&b, "-%d|%d", q.not, q.or)
	return b.String()
}

type opKind uint8

const (
	opQuery opKind = iota
	opAdd
	opDelete
	numOpKinds
)

var opKindNames = [numOpKinds]string{"query", "add", "delete"}

func (k opKind) String() string { return opKindNames[k] }

// op is one pre-generated request: the HTTP/1.1 bytes sent on the wire and
// what the oracle needs to check the reply.
type op struct {
	kind  opKind
	q     query   // opQuery
	doc   uint32  // opAdd, opDelete
	terms []int32 // opAdd
	req   []byte
}

// opSet is every request a run sends, generated before timing starts.
type opSet struct {
	warm    []op             // off the clock, before the timed phase
	clients [numClients][]op // the timed phase, one list per client
	cycle   bool             // clients wrap around their lists (hot)
	tail    [numClients][]op // write round trips after the timed phase (hot, cold)
	check   []op             // queries re-run against the final state (churn)
}

// subSeed derives an independent stream seed from the run seed.
func subSeed(seed uint64, stream uint64) uint64 {
	return xhash.NewRNG(seed ^ stream*0x9E3779B97F4A7C15).Uint64()
}

func corpusConfig(w workloadSpec, seed uint64) workload.RealConfig {
	cfg := workload.SmallRealConfig()
	cfg.NumDocs = w.docs
	cfg.NumTerms = w.terms
	cfg.NumQueries = w.baseQueries
	cfg.Seed = seed
	return cfg
}

// generateOps builds the run's op lists from the corpus and the seed.
func generateOps(w workloadSpec, corpus *workload.Real, seed uint64, seconds int) (*opSet, error) {
	set := &opSet{}
	scfg := workload.StreamConfig{OrFrac: w.or, NotFrac: w.not, Seed: subSeed(seed, 1)}
	queryOps := func(texts []string) ([]op, error) {
		ops := make([]op, 0, len(texts))
		for _, s := range texts {
			q, err := parseGenerated(s)
			if err != nil {
				return nil, err
			}
			ops = append(ops, op{kind: opQuery, q: q, req: queryRequest(s)})
		}
		return ops, nil
	}
	switch w.name {
	case "hot":
		cycle, err := queryOps(corpus.QueryStream(hotCycle, scfg))
		if err != nil {
			return nil, err
		}
		set.warm = cycle
		set.clients[0] = cycle
		// The second client walks the same cycle half a lap ahead.
		set.clients[1] = append(slices.Clone(cycle[len(cycle)/2:]), cycle[:len(cycle)/2]...)
		set.cycle = true
	case "cold":
		n := warmQueries + seconds*opsPerSecond
		seen := make(map[string]bool, n)
		var texts []string
		for _, s := range corpus.QueryStream(3*n, scfg) {
			q, err := parseGenerated(s)
			if err != nil {
				return nil, err
			}
			if k := q.key(); !seen[k] {
				seen[k] = true
				texts = append(texts, s)
				if len(texts) == n {
					break
				}
			}
		}
		ops, err := queryOps(texts)
		if err != nil {
			return nil, err
		}
		set.warm = ops[:min(warmQueries, len(ops))]
		for i, o := range ops[len(set.warm):] {
			set.clients[i%numClients] = append(set.clients[i%numClients], o)
		}
	case "churn":
		warm, err := queryOps(corpus.QueryStream(warmQueries, workload.StreamConfig{
			OrFrac: w.or, NotFrac: w.not, Seed: subSeed(seed, 2)}))
		if err != nil {
			return nil, err
		}
		set.warm = warm
		ccfg := workload.DefaultChurnConfig()
		ccfg.Seed = subSeed(seed, 3)
		ccfg.Stream = scfg
		nq := 0
		for _, c := range corpus.ChurnStream(seconds*opsPerSecond, ccfg) {
			var o op
			switch c.Kind {
			case workload.ChurnQuery:
				q, err := parseGenerated(c.Query)
				if err != nil {
					return nil, err
				}
				o = op{kind: opQuery, q: q, req: queryRequest(c.Query)}
				// Queries alternate between the clients.
				set.clients[nq%numClients] = append(set.clients[nq%numClients], o)
				nq++
				continue
			case workload.ChurnAdd:
				terms, err := termIDs(c.Terms)
				if err != nil {
					return nil, err
				}
				o = op{kind: opAdd, doc: c.DocID, terms: terms, req: addRequest(c.DocID, terms)}
			case workload.ChurnDelete:
				o = op{kind: opDelete, doc: c.DocID, req: deleteRequest(c.DocID)}
			}
			// Writes go to the client that owns the docID, so each document's
			// mutations reach the server in stream order.
			c := int(o.doc % numClients)
			set.clients[c] = append(set.clients[c], o)
		}
		check, err := queryOps(corpus.QueryStream(checkQueries, workload.StreamConfig{
			OrFrac: w.or, NotFrac: w.not, Seed: subSeed(seed, 4)}))
		if err != nil {
			return nil, err
		}
		set.check = check
	default:
		return nil, fmt.Errorf("unknown workload %q", w.name)
	}
	if w.name != "churn" {
		// Write round trips on documents beyond every generated docID.
		rng := xhash.NewRNG(subSeed(seed, 5))
		for i := 0; i < tailPairs; i++ {
			doc := 2*w.docs + uint32(i)
			terms := sampleTerms(rng, w.terms)
			c := int(doc % numClients)
			set.tail[c] = append(set.tail[c],
				op{kind: opAdd, doc: doc, terms: terms, req: addRequest(doc, terms)},
				op{kind: opDelete, doc: doc, req: deleteRequest(doc)})
		}
	}
	return set, nil
}

// sampleTerms draws 1–6 distinct head-biased terms, like the churn stream's
// documents.
func sampleTerms(rng *xhash.RNG, vocab int) []int32 {
	k := 1 + rng.Intn(6)
	out := make([]int32, 0, k)
	for len(out) < k {
		t := int32(rng.Float64() * rng.Float64() * float64(vocab))
		if !slices.Contains(out, t) {
			out = append(out, t)
		}
	}
	return out
}

func termIDs(names []string) ([]int32, error) {
	out := make([]int32, len(names))
	for i, s := range names {
		t, err := parseTerm(s)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

const host = "Host: 127.0.0.1\r\n"

func queryRequest(q string) []byte {
	return []byte("GET /query?q=" + url.QueryEscape(q) + "&limit=" + strconv.Itoa(queryLimit) +
		" HTTP/1.1\r\n" + host + "\r\n")
}

func addRequest(doc uint32, terms []int32) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, `{"doc_id":%d,"terms":[`, doc)
	for i, t := range terms {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(workload.TermName(int(t))))
	}
	b.WriteString("]}")
	body := b.String()
	return []byte("POST /index/doc HTTP/1.1\r\n" + host +
		"Content-Type: application/json\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body)
}

func deleteRequest(doc uint32) []byte {
	return []byte("DELETE /index/doc/" + strconv.FormatUint(uint64(doc), 10) + " HTTP/1.1\r\n" + host + "\r\n")
}

// digest fingerprints an op list by its request bytes, so two runs can be
// shown to send identical inputs.
func digest(ops []op) string {
	h := sha256.New()
	for _, o := range ops {
		h.Write(o.req)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func (s *opSet) digests() []string {
	var out []string
	add := func(name string, ops []op) {
		if len(ops) > 0 {
			out = append(out, fmt.Sprintf("%s %d ops %s", name, len(ops), digest(ops)))
		}
	}
	add("warm", s.warm)
	for c := range s.clients {
		add(fmt.Sprintf("client%d", c), s.clients[c])
	}
	for c := range s.tail {
		add(fmt.Sprintf("tail%d", c), s.tail[c])
	}
	add("check", s.check)
	return out
}
