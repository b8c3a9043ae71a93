package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"

	"fastintersect/internal/sets"
	"fastintersect/internal/workload"
)

// reference is the benchmark's own copy of a corpus, built from the same
// generator and seed as the server's.
type reference struct {
	postings [][]uint32
	inBase   []bool // docID appears in some posting list
	docs     uint64 // distinct docIDs indexed
}

func newReference(c *workload.Real) *reference {
	r := &reference{postings: c.Postings, inBase: make([]bool, c.Config.NumDocs)}
	for _, l := range c.Postings {
		for _, d := range l {
			if !r.inBase[d] {
				r.inBase[d] = true
				r.docs++
			}
		}
	}
	return r
}

// serverShards is fsiserve's default shard count.
const serverShards = 4

// shardOf mirrors the engine's document routing (Fibonacci hashing of the
// docID). It is the one server internal the oracle assumes: /stats counts
// terms as distinct (term, shard) pairs.
func shardOf(doc uint32) int {
	return int((uint64(doc) * 0x9E3779B97F4A7C15 >> 33) % serverShards)
}

// termShardPairs is the /stats "terms" the server must report for the base
// corpus.
func (r *reference) termShardPairs() int {
	n := 0
	for _, l := range r.postings {
		var seen [serverShards]bool
		for _, d := range l {
			seen[shardOf(d)] = true
		}
		for _, s := range seen {
			if s {
				n++
			}
		}
	}
	return n
}

func (r *reference) list(t int32) []uint32 {
	if t < 0 || int(t) >= len(r.postings) {
		return nil
	}
	return r.postings[t]
}

// evalQuery evaluates q with the sets reference operators.
func evalQuery(q query, list func(int32) []uint32) []uint32 {
	lists := make([][]uint32, len(q.and))
	for i, t := range q.and {
		lists[i] = list(t)
	}
	res := sets.IntersectReference(lists...)
	if q.not >= 0 {
		res = sets.Difference(res, list(q.not))
	}
	if q.or >= 0 {
		res = sets.Union(res, list(q.or))
	}
	return res
}

// queryReply is the part of a /query response the oracle checks.
type queryReply struct {
	Count int      `json:"count"`
	Docs  []uint32 `json:"docs"`
}

// checkReply compares a /query body with the reference result: the count,
// and the returned docs as the first queryLimit matches in ascending order.
func checkReply(body []byte, want []uint32) error {
	var got queryReply
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("bad /query body %q: %v", body, err)
	}
	if got.Count != len(want) {
		return fmt.Errorf("count %d, reference %d", got.Count, len(want))
	}
	prefix := want[:min(queryLimit, len(want))]
	if !slices.Equal(got.Docs, prefix) && !(len(got.Docs) == 0 && len(prefix) == 0) {
		return fmt.Errorf("docs %v, reference %v", got.Docs, prefix)
	}
	return nil
}

// memoOracle evaluates each distinct query once against a static corpus.
type memoOracle struct {
	ref  *reference
	memo map[string][]uint32
}

func (m *memoOracle) want(q query) []uint32 {
	if r, ok := m.memo[q.text]; ok {
		return r
	}
	r := evalQuery(q, m.ref.list)
	m.memo[q.text] = r
	return r
}

// model is the churn oracle: the base corpus plus the mutations applied so
// far. Writes are partitioned by docID across clients, so applying each
// client's completed writes in its own order reproduces the server's state.
type model struct {
	ref     *reference
	removed []bool // base docs deleted or superseded by an add
	added   map[uint32][]int32
	lists   map[int32][]uint32 // final-state lists, built on first use
}

func newModel(ref *reference) *model {
	return &model{ref: ref, removed: make([]bool, len(ref.inBase)), added: map[uint32][]int32{}}
}

func (m *model) present(doc uint32) bool {
	if _, ok := m.added[doc]; ok {
		return true
	}
	return int(doc) < len(m.ref.inBase) && m.ref.inBase[doc] && !m.removed[doc]
}

// apply applies a write and returns the status the server must have
// answered: 200 for an add, 200 for a delete of a present doc, else 404.
func (m *model) apply(o op) int {
	want := http.StatusOK
	if o.kind == opDelete && !m.present(o.doc) {
		want = http.StatusNotFound
	}
	if int(o.doc) < len(m.removed) {
		m.removed[o.doc] = true
	}
	if o.kind == opAdd {
		m.added[o.doc] = o.terms
	} else {
		delete(m.added, o.doc)
	}
	return want
}

// list is term t's posting list in the final state.
func (m *model) list(t int32) []uint32 {
	if l, ok := m.lists[t]; ok {
		return l
	}
	if m.lists == nil {
		m.lists = map[int32][]uint32{}
	}
	var l []uint32
	for _, d := range m.ref.list(t) {
		if !m.removed[d] {
			l = append(l, d)
		}
	}
	for d, terms := range m.added {
		if slices.Contains(terms, t) {
			l = append(l, d)
		}
	}
	slices.Sort(l)
	m.lists[t] = l
	return l
}
