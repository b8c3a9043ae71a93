package engine

import (
	"fmt"
	"sync"
	"testing"

	"fastintersect/internal/sets"
)

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2)
	c.put("a", []uint32{1}, 1, 1)
	c.put("b", []uint32{2}, 1, 1)
	if _, _, ok := c.get("a", 1, -1); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", []uint32{3}, 1, 1) // evicts b
	if _, _, ok := c.get("b", 1, -1); ok {
		t.Fatal("b should have been evicted")
	}
	if _, _, ok := c.get("a", 1, -1); !ok {
		t.Fatal("a should have survived")
	}
	if _, _, ok := c.get("c", 1, -1); !ok {
		t.Fatal("c should be present")
	}
	st := c.stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Capacity != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheCounters(t *testing.T) {
	c := newCache(8)
	if _, _, ok := c.get("x", 1, -1); ok {
		t.Fatal("unexpected hit")
	}
	c.put("x", []uint32{9}, 1, 1)
	if v, _, ok := c.get("x", 1, -1); !ok || len(v) != 1 || v[0] != 9 {
		t.Fatalf("get = %v, %v", v, ok)
	}
	c.put("x", []uint32{9, 10}, 2, 1) // overwrite updates in place
	if v, _, _ := c.get("x", 1, -1); len(v) != 2 {
		t.Fatalf("overwrite lost: %v", v)
	}
	st := c.stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newCache(0) // nil
	c.put("a", []uint32{1}, 1, 1)
	if _, _, ok := c.get("a", 1, -1); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if st := c.stats(); st != (CacheStats{}) {
		t.Fatalf("disabled stats = %+v", st)
	}
}

// TestCacheGenerationInvalidation pins the mutation-invalidation guarantee:
// an entry stamped with an older index generation is dropped on lookup, and
// a put carrying a generation from before a mutation never shadows a newer
// entry.
func TestCacheGenerationInvalidation(t *testing.T) {
	c := newCache(8)
	c.put("q", []uint32{1}, 1, 1)
	if _, _, ok := c.get("q", 1, -1); !ok {
		t.Fatal("fresh entry missed")
	}
	// The index moved to generation 2 (a mutation landed): the entry must
	// be dropped, not served.
	if _, _, ok := c.get("q", 2, -1); ok {
		t.Fatal("stale entry served after a generation bump")
	}
	if st := c.stats(); st.Stale != 1 || st.Entries != 0 {
		t.Fatalf("after stale drop: %+v", st)
	}
	// A slow query that snapshotted generation 1 must not overwrite the
	// entry a generation-2 query installed.
	c.put("q", []uint32{2}, 1, 2)
	c.put("q", []uint32{1}, 1, 1)
	if v, _, ok := c.get("q", 2, -1); !ok || v[0] != 2 {
		t.Fatalf("stale put shadowed a fresh entry: %v %v", v, ok)
	}
	// Entries stamped with a stale generation are unservable even if they
	// land: they miss on the next current-generation lookup.
	c.put("r", []uint32{1}, 1, 1)
	if _, _, ok := c.get("r", 2, -1); ok {
		t.Fatal("entry computed at a stale generation was served")
	}
}

// TestCacheKeyCanonicalForm pins the cache-key satellite end to end: the
// cache is keyed on the normalizer's canonical form, so commuted,
// reassociated and duplicated spellings of one query occupy ONE entry and
// hit each other. Only the first spelling may miss.
func TestCacheKeyCanonicalForm(t *testing.T) {
	e := buildTestEngine(t, Config{Shards: 2, CacheSize: 64}, 5_000)
	spellings := []string{
		"m2 AND m3 AND NOT m5",
		"m3 AND m2 AND NOT m5",                  // commuted
		"NOT m5 AND (m3 AND (m2))",              // reassociated
		"m2 m3 AND m2 AND NOT m5",               // implicit AND + duplicate operand
		"m2 AND (m3 AND NOT NOT m3) AND NOT m5", // double negation folds away
	}
	first, err := e.Query(spellings[0])
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first spelling unexpectedly cached")
	}
	for _, q := range spellings[1:] {
		res, err := e.Query(q)
		if err != nil {
			t.Fatalf("Query(%q): %v", q, err)
		}
		if !res.Cached {
			t.Errorf("Query(%q) missed the cache; canonical form %q", q, res.Normalized)
		}
		if res.Normalized != first.Normalized {
			t.Errorf("Query(%q) keyed as %q, want %q", q, res.Normalized, first.Normalized)
		}
	}
	if st := e.cache.stats(); st.Entries != 1 {
		t.Errorf("spellings occupy %d cache entries, want 1", st.Entries)
	}
}

// TestCacheGenerationCounters pins the accounting satellite: every
// generation-related miss is counted in Stale (both mismatch directions),
// generation-discarded inserts are counted in DroppedPuts, and
// Hits+Misses stays the total lookup count throughout.
func TestCacheGenerationCounters(t *testing.T) {
	c := newCache(8)
	lookups := 0
	get := func(key string, gen uint64) bool {
		lookups++
		_, _, ok := c.get(key, gen, -1)
		return ok
	}
	c.put("q", []uint32{1}, 1, 1)
	if !get("q", 1) {
		t.Fatal("fresh entry missed")
	}
	// Entry older than the lookup: dropped and stale.
	if get("q", 2) {
		t.Fatal("superseded entry served")
	}
	st := c.stats()
	if st.Stale != 1 || st.Entries != 0 {
		t.Fatalf("after old-entry drop: %+v", st)
	}
	// Entry newer than the lookup (the lookup snapshotted its generation
	// before a mutation landed): a stale miss too, but the entry stays
	// servable for current-generation lookups.
	c.put("q", []uint32{2}, 1, 2)
	if get("q", 1) {
		t.Fatal("newer entry served to an older-generation lookup")
	}
	st = c.stats()
	if st.Stale != 2 {
		t.Fatalf("newer-direction mismatch not counted stale: %+v", st)
	}
	if st.Entries != 1 {
		t.Fatalf("newer entry should survive an older lookup: %+v", st)
	}
	if !get("q", 2) {
		t.Fatal("current-generation lookup should still hit")
	}

	// Puts from behind the newest seen generation are discarded — and now
	// counted, so sustained-mutation workloads can see why entries never
	// materialize.
	c.put("r", []uint32{1}, 1, 1) // maxGen is 2: dropped
	if st = c.stats(); st.DroppedPuts != 1 {
		t.Fatalf("behind-maxGen put not counted: %+v", st)
	}
	c.put("q", []uint32{3}, 1, 1) // behind the existing entry's generation too
	if st = c.stats(); st.DroppedPuts != 2 {
		t.Fatalf("behind-entry put not counted: %+v", st)
	}
	if st.Hits+st.Misses != uint64(lookups) {
		t.Fatalf("Hits(%d)+Misses(%d) != lookups(%d)", st.Hits, st.Misses, lookups)
	}
	if st.Stale > st.Misses {
		t.Fatalf("Stale(%d) must be a subset of Misses(%d)", st.Stale, st.Misses)
	}
}

// TestCacheCountersUnderMutation drives the real engine query/mutation path
// and checks the generation accounting surfaces there: mutations between
// repeated queries must show up as stale lookups, never as phantom hits.
func TestCacheCountersUnderMutation(t *testing.T) {
	e := buildTestEngine(t, Config{Shards: 2, CacheSize: 64}, 5_000)
	q := "m2 AND m3"
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(q)
	if err != nil || !res.Cached {
		t.Fatalf("second query should hit: %v %v", res, err)
	}
	if err := e.AddDocument(1_000_001, []string{"m2", "m3"}); err != nil {
		t.Fatal(err)
	}
	res, err = e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("query after a mutation served a stale cached result")
	}
	st := e.cache.stats()
	if st.Stale == 0 {
		t.Fatalf("mutation-invalidated lookup not counted stale: %+v", st)
	}
	if st.Hits != 1 {
		t.Fatalf("hits = %d, want 1: %+v", st.Hits, st)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := newCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%100)
				if v, _, ok := c.get(key, 1, -1); ok && v[0] != uint32(i%100) {
					t.Errorf("corrupt value for %s: %v", key, v)
					return
				}
				c.put(key, []uint32{uint32(i % 100)}, 1, 1)
			}
		}(g)
	}
	wg.Wait()
}

// TestCachePrefixHit pins when a prefix entry serves a lookup: a page no
// longer than the prefix (count-only included), or any page once the prefix
// is the complete result. The full count comes back with every hit.
func TestCachePrefixHit(t *testing.T) {
	c := newCache(8)
	c.put("q", []uint32{1, 2, 3}, 10, 1) // a 3-doc page of a 10-doc result
	for _, limit := range []int{0, 2, 3} {
		docs, count, ok := c.get("q", 1, limit)
		if !ok || count != 10 || !sets.Equal(docs, []uint32{1, 2, 3}) {
			t.Fatalf("limit %d: get = %v, %d, %v; want the 3-doc prefix and count 10", limit, docs, count, ok)
		}
	}
	c.put("r", []uint32{4, 5}, 2, 1) // complete
	for _, limit := range []int{-1, 0, 2, 5} {
		if docs, count, ok := c.get("r", 1, limit); !ok || count != 2 || len(docs) != 2 {
			t.Fatalf("complete entry at limit %d: get = %v, %d, %v", limit, docs, count, ok)
		}
	}
	c.put("z", nil, 0, 1) // an empty result is complete at any limit
	if _, count, ok := c.get("z", 1, -1); !ok || count != 0 {
		t.Fatalf("empty result: count %d, ok %v", count, ok)
	}
	if st := c.stats(); st.Hits != 8 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 8 hits", st)
	}
}

// TestCachePrefixMiss pins the short-prefix lookup: it misses, counts in
// Misses and not Stale, and leaves the entry in place.
func TestCachePrefixMiss(t *testing.T) {
	c := newCache(8)
	c.put("q", []uint32{1, 2, 3}, 10, 1)
	c.put("n", nil, 4, 1) // count-only: an empty prefix of a 4-doc result
	for _, lk := range []struct {
		key   string
		limit int
	}{{"q", 4}, {"q", -1}, {"n", 1}, {"n", -1}} {
		if docs, _, ok := c.get(lk.key, 1, lk.limit); ok {
			t.Fatalf("%s at limit %d: short prefix served %v", lk.key, lk.limit, docs)
		}
	}
	st := c.stats()
	if st.Misses != 4 || st.Stale != 0 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 4 plain misses", st)
	}
	if st.Entries != 2 {
		t.Fatalf("short-prefix misses dropped entries: %+v", st)
	}
}

// TestCachePrefixReplace pins the replacement rule: at the entry's
// generation only a longer prefix replaces it, so a short page never
// pushes out a long one; a newer generation replaces it whatever its length.
func TestCachePrefixReplace(t *testing.T) {
	c := newCache(8)
	c.put("q", []uint32{1, 2}, 10, 1)
	c.put("q", []uint32{1, 2, 3, 4, 5}, 10, 1) // longer: replaces
	if docs, _, ok := c.get("q", 1, 5); !ok || len(docs) != 5 {
		t.Fatalf("longer prefix did not replace: %v %v", docs, ok)
	}
	c.put("q", []uint32{1}, 10, 1) // shorter, same generation: ignored
	c.put("q", nil, 10, 1)         // count-only, same generation: ignored
	if docs, _, ok := c.get("q", 1, 5); !ok || len(docs) != 5 {
		t.Fatalf("shorter prefix replaced a longer one: %v %v", docs, ok)
	}
	c.put("q", []uint32{7}, 3, 2) // newer generation: replaces
	if docs, count, ok := c.get("q", 2, 1); !ok || count != 3 || !sets.Equal(docs, []uint32{7}) {
		t.Fatalf("newer-generation put did not replace: %v %d %v", docs, count, ok)
	}
	if st := c.stats(); st.Entries != 1 || st.DroppedPuts != 0 {
		t.Fatalf("stats = %+v", st)
	}
}
