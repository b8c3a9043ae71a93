// Package fastintersect computes intersections of preprocessed in-memory
// sets, implementing "Fast Set Intersection in Memory" (Bolin Ding and
// Arnd Christian König, PVLDB 4(4), 2011).
//
// The paper's idea: partition each set into small groups of ≈√w elements
// (w = machine word width), map every group into [w] with a universal hash
// function, and store the image as a single machine word. Intersecting two
// groups then starts with one bitwise-AND; empty group intersections — the
// overwhelming majority when the final intersection is small, as in search
// workloads — are skipped without touching the elements. The paper's
// algorithms and their guarantees:
//
//	IntGroup      O((n1+n2)/√w + r)      fixed-width partitions, 2 sets
//	RanGroup      O(n/√w + k·r)          randomized partitions, k sets
//	RanGroupScan  (Theorem 3.9)          simple variant, fastest in practice
//	HashBin       O(n1·log(n2/n1))       skewed set sizes
//
// Basic usage:
//
//	l1, _ := fastintersect.Preprocess(ids1)
//	l2, _ := fastintersect.Preprocess(ids2)
//	res, _ := fastintersect.Intersect(l1, l2)       // auto-picks an algorithm
//
// Intersect returns results in an algorithm-dependent order; use
// IntersectSorted for ascending document IDs. IntersectWith selects a
// specific algorithm, including the nine baselines the paper evaluates
// against (Merge, Hash, SkipList, SvS, Adaptive, BaezaYates, SmallAdaptive,
// Lookup, BPP), which makes head-to-head comparisons on your own workload a
// one-line change.
//
// All lists preprocessed with the same seed (see WithSeed) share the random
// permutation g and hash functions h1..hm and can be intersected together.
// A List lazily materializes the per-algorithm structures on first use, so
// you pay only for the algorithms you run.
//
// Algorithm names round-trip through ParseAlgorithm and Algorithm.String,
// which is how the CLI tools (cmd/fsi, cmd/fsibench, cmd/fsiserve) select
// algorithms.
//
// High-QPS callers can eliminate per-query allocations entirely: acquire a
// pooled ExecContext with GetExecContext and use IntersectInto (append into
// a caller buffer) or IntersectWithBuf (reuse the context's buffer). With
// warm structures the core kernels run at 0 allocs/op; IntersectWith is a
// thin wrapper that borrows a context per call and returns a fresh slice.
// See ARCHITECTURE.md's "Query execution and memory discipline" for the
// ownership rules.
//
// Above the library sits a query-serving subsystem (internal/engine,
// served by cmd/fsiserve): an inverted index hash-partitioned across
// shards, a cost-based query planner (internal/plan) that lowers a small
// AND/OR/NOT language to physical plans — kernel choice, operand order and
// decode decisions priced by coefficients calibrated against the real
// kernels at startup, inspectable via Engine.Explain / the HTTP explain=1
// parameter — an LRU result cache keyed by the normalized (canonical)
// query, batch execution (Engine.QueryBatch) that plans once per canonical
// form through the same plan cache and runs the whole batch in one pass of
// the engine's shard fan-out, sharing decode memos, and an HTTP JSON API
// that servebench drives end to end — the search-engine setting that
// motivates the paper. The corpus stays live: each shard pairs
// its frozen base segment with a small delta segment and a tombstone set,
// so documents added or deleted at serving time (Engine.AddDocument /
// DeleteDocument, or POST /index/doc over HTTP) are queryable immediately,
// and a background compaction folds the deltas back into preprocessed base
// segments. See ARCHITECTURE.md's mutable-tier section for the design.
//
// The serving tier's posting storage is pluggable (§4.1 and Appendix B of
// the paper): besides raw slices, internal/invindex can hold each posting
// list compressed — Elias γ/δ gap codes behind a bucket directory, or the
// paper's Lowbits grouping whose decode is a single bit concatenation —
// with the encoding chosen per list from its length and density (short
// lists stay raw, γ wins on dense lists, δ on sparse ones, and long
// mid-density lists take Lowbits, trading ≤2× the best gap-coded size for
// the fastest compressed intersections). Queries intersect directly over
// the compressed representations, and engine.Stats reports the exact
// bytes-per-posting footprint per encoding. See ARCHITECTURE.md for the
// full map from packages to paper sections.
package fastintersect
