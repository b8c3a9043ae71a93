// Package engine is the query-serving subsystem built on top of the
// fastintersect library: the layer between the paper's intersection
// algorithms and a search service.
//
// Documents are hash-partitioned across S shards. Each shard is a tiered
// segmented index: a frozen base segment (an invindex.Index, raw or
// compressed), k frozen in-memory segments and one active mutable segment
// (internal/segment), each segment carrying its own tombstone filter, so the
// corpus stays mutable (AddDocument / DeleteDocument) without giving up the
// preprocessed read path — every document is visible in exactly one segment,
// so each shard evaluates a query f as the k-way union of
// (f(segment) − segment tombstones) across its tier, with conjunctions
// still pushed down to the fastintersect / compressed kernels on the base.
// Background compaction (see mutable.go) is incremental: the active segment
// freezes into the tier by a map move, a size-tiered merge coalesces only
// the smallest frozen segments, and a full rebuild through the parallel
// build path Install uses runs only on demand (Compact) or when base
// tombstones accumulate.
//
// A query is parsed and normalized by internal/plan (the canonical form is
// the cache key), looked up in an LRU result cache, and on a miss lowered
// to one physical plan against engine-aggregate statistics and fanned out
// to every shard through a bounded worker pool; each shard executes the
// plan (see exec.go), re-pricing kernels on its actual operand sizes
// through the planner's calibrated cost model, and the per-shard sorted
// results are merged into only the page the caller reads (QueryLimitContext;
// count-only is limit 0). Cache entries hold that page as a result prefix
// plus the full count, stamped with the engine's index generation — every
// mutation and rebuild bumps it — so a cached result can never resurrect a
// deleted document. Explain returns the executed
// plan; QueryBatch deduplicates many queries, plans them through the same
// plan cache, and runs them all in one pass of the same shard fan-out, so
// each shard's decode memo serves the whole batch.
//
// The posting storage is pluggable (Config.Storage): under
// invindex.StorageCompressed each shard's base stores every posting list
// under the encoding compress.ChooseEncoding picks from its density,
// conjunctions run compress.IntersectStored directly over the compressed
// representations, and Stats reports the exact per-encoding
// bytes-per-posting footprint.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fastintersect"
	"fastintersect/internal/invindex"
	"fastintersect/internal/obs"
	"fastintersect/internal/plan"
	"fastintersect/internal/sets"
)

// Config parameterizes an Engine.
type Config struct {
	// Shards is the number of hash partitions (default 1).
	Shards int
	// Workers bounds the pool evaluating shard sub-queries across ALL
	// in-flight queries (default GOMAXPROCS).
	Workers int
	// CacheSize is the result-cache capacity in entries (0 disables it).
	CacheSize int
	// Algorithm intersects term conjunctions (default Auto). Algorithms
	// with a set-count limit fall back to Auto for wider conjunctions.
	// Ignored under StorageCompressed, which intersects directly over the
	// compressed representations.
	Algorithm fastintersect.Algorithm
	// Storage selects the posting-list representation of every shard
	// (default StorageRaw). StorageCompressed stores each list under the
	// encoding compress.ChooseEncoding picks from its length and density;
	// Stats then reports the per-encoding footprint.
	Storage invindex.Storage
	// CompactThreshold triggers a background compaction of a shard once its
	// active segment holds that many postings — or, under CompactRebuild,
	// its base tombstone filter that many docIDs (under the default tiered
	// policy base tombstones escalate to a rebuild at a multiple of the
	// threshold; see mutable.go). 0 disables automatic compaction; Compact,
	// FreezeActive and MergeSegments remain available.
	CompactThreshold int
	// MaxSegments bounds the frozen in-memory segments a shard's tier may
	// hold before a background size-tiered merge coalesces the smallest
	// ones (0 = default of 4). Smaller values favor query latency (fewer
	// segments per query), larger values favor write amplification.
	MaxSegments int
	// CompactPolicy selects what a background compaction does when the
	// threshold is crossed: CompactTiered (default) freezes the active
	// segment and size-tiered-merges the frozen tier; CompactRebuild folds
	// the whole tier into a fresh base every time — the pre-tier behavior,
	// kept for the harness's write-amplification comparison.
	CompactPolicy CompactPolicy
	// PlanCosts overrides the cost-model coefficients the query planner
	// prices kernels with. Nil runs the startup micro-calibration
	// (plan.Calibrated) once per process.
	PlanCosts *plan.Costs
	// PlanPolicy tunes the physical planner's operand ordering and kernel
	// choice. The zero value is the cost-based default; the other
	// combinations exist for the harness's plan-quality experiment.
	PlanPolicy plan.Policy
	// PlanFeedback turns on the adaptive planning loop: sampled per-operator
	// actuals are harvested into a plan.Feedback store whose periodic re-fit
	// derives per-kernel correction factors on top of the calibrated
	// coefficients, re-pricing future plans (and invalidating cached ones
	// through the feedback epoch). Purely a performance feature — kernel
	// choice never changes results — and off by default.
	PlanFeedback bool
	// IndexOptions are forwarded to fastintersect.Preprocess for every
	// posting list.
	IndexOptions []fastintersect.Option
	// TraceSample traces 1 in N queries with per-stage and per-operator
	// timing (0 = the package default of 64). Sampled traces feed the stage
	// histograms and per-kernel counters on Metrics(); unsampled queries
	// pay one atomic add and a nil check per operator.
	TraceSample int
	// NoMetrics disables the latency/stage histograms and trace sampling
	// (the plain operation counters stay on — they are one sharded atomic
	// add each). Exists for the CI overhead guard and for embedders that
	// bring their own instrumentation.
	NoMetrics bool
	// Faults, when non-nil, enables deterministic fault injection on the
	// shard-evaluation path (added latency, forced errors, forced panics)
	// for the overload experiments and the cancellation/panic-barrier
	// tests. Nil — the production default — costs one pointer check per
	// shard evaluation. See faults.go.
	Faults *FaultPlan
}

// CompactPolicy selects the background compaction strategy (Config).
type CompactPolicy uint8

const (
	// CompactTiered freezes the active segment into the frozen tier and
	// coalesces only the smallest frozen segments (size-tiered merge),
	// escalating to a full rebuild only when base tombstones accumulate.
	CompactTiered CompactPolicy = iota
	// CompactRebuild folds the whole tier into a fresh base on every
	// trigger — maximal write amplification, minimal segment count.
	CompactRebuild
)

func (p CompactPolicy) String() string {
	if p == CompactRebuild {
		return "rebuild"
	}
	return "tiered"
}

// Engine serves queries against a sharded inverted index. All methods are
// safe for concurrent use; Query may run while Install swaps in a rebuilt
// index, while AddDocument/DeleteDocument mutate shards, and while a
// compaction swaps a shard's base segment.
type Engine struct {
	cfg     Config
	costs   *plan.Costs    // cost-model coefficients (configured or calibrated)
	fb      *plan.Feedback // adaptive-planning store, nil unless Config.PlanFeedback
	workers chan struct{}
	cache   *cache
	plans   *planCache

	mu     sync.RWMutex
	shards []*shard

	// gen is the index generation: bumped after every Install and every
	// document mutation. Query snapshots it BEFORE reading shard state and
	// stamps cache entries with it, so entries computed against superseded
	// state are never served (see cache.go). Compactions do not bump it —
	// they change the representation, not the visible document set.
	gen atomic.Uint64

	// statsEpoch tracks representation changes: bumped by every Install and
	// every successful compaction swap, the two events that can re-encode
	// posting lists and so change the statistics a physical plan was priced
	// against. The plan cache stamps entries with it (see plancache.go);
	// document mutations deliberately leave it alone — they bump gen, and a
	// slightly stale plan is correctness-safe because shards re-price
	// kernels on actual sizes at execution.
	statsEpoch atomic.Uint64

	// met is the observability surface: operation counters, latency and
	// stage histograms, per-kernel counters and the trace sampler, all on a
	// per-engine obs.Registry (see metrics.go and Metrics).
	met *engineMetrics

	// faultCtr sequences Config.Faults.{ErrEvery,PanicEvery} injections so
	// "every Nth evaluation" is exact across concurrent shard workers.
	faultCtr atomic.Uint64
}

// ErrNotBuilt is returned by Query and the mutation methods before any index
// has been installed. To start from an empty corpus, Install an empty
// Builder first.
var ErrNotBuilt = errors.New("engine: no index installed; Install a Builder first")

// New creates an engine with no index installed.
func New(cfg Config) *Engine {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	costs := cfg.PlanCosts
	if costs == nil {
		costs = plan.Calibrated()
	}
	e := &Engine{
		cfg:     cfg,
		costs:   costs,
		workers: make(chan struct{}, cfg.Workers),
		cache:   newCache(cfg.CacheSize),
		plans:   newPlanCache(),
	}
	if cfg.PlanFeedback {
		e.fb = plan.NewFeedback(costs)
	}
	e.met = newEngineMetrics(e, cfg)
	return e
}

// planCosts returns the coefficients queries price kernels with: the
// feedback store's corrected snapshot when the adaptive loop is on, the
// configured/calibrated base otherwise. The snapshot is immutable; both
// plan building and per-shard re-pricing read through here so a published
// correction reaches every chooser.
func (e *Engine) planCosts() *plan.Costs {
	if e.fb != nil {
		return e.fb.Costs()
	}
	return e.costs
}

// Metrics returns the engine's metric registry — operation counters, the
// query-latency and per-stage histograms, per-kernel counters and the
// cache/generation callback series — for rendering via
// obs.Registry.WritePrometheus (fsiserve mounts it at GET /metrics).
func (e *Engine) Metrics() *obs.Registry { return e.met.reg }

// shardOf routes a document to its partition (Fibonacci hashing on the
// docID so consecutive IDs spread evenly).
func shardOf(docID uint32, shards int) int {
	return int((uint64(docID) * 0x9E3779B97F4A7C15 >> 33) % uint64(shards))
}

// Builder accumulates documents for one build. It is not safe for
// concurrent use; Build (via Engine.Install) parallelizes internally.
type Builder struct {
	cfg    Config
	shards []*invindex.Index
}

// NewBuilder returns an empty builder with the engine's sharding and
// preprocessing configuration.
func (e *Engine) NewBuilder() *Builder {
	b := &Builder{cfg: e.cfg, shards: make([]*invindex.Index, e.cfg.Shards)}
	for i := range b.shards {
		b.shards[i] = invindex.NewWithStorage(e.cfg.Storage, e.cfg.IndexOptions...)
	}
	return b
}

// Add records a document in its home shard. Adding the same docID more than
// once unions its terms; it is still counted as one document.
func (b *Builder) Add(docID uint32, terms []string) error {
	return b.shards[shardOf(docID, len(b.shards))].Add(docID, terms)
}

// AddPosting records a whole term → docIDs posting list, partitioning it
// across shards (builder-style input for corpora that arrive term-major).
func (b *Builder) AddPosting(term string, docIDs []uint32) error {
	if len(b.shards) == 1 {
		return b.shards[0].AddPosting(term, docIDs)
	}
	parts := make([][]uint32, len(b.shards))
	for _, d := range docIDs {
		s := shardOf(d, len(b.shards))
		parts[s] = append(parts[s], d)
	}
	for s, part := range parts {
		if len(part) == 0 {
			continue
		}
		if err := b.shards[s].AddPosting(term, part); err != nil {
			return err
		}
	}
	return nil
}

// Install builds every shard concurrently (each shard additionally
// parallelizes over its terms, so total build goroutines ≈ max(Workers,
// Shards) — one per shard at minimum), swaps the new shard set in, and
// bumps the index generation so cached results from the previous index are
// never served. The builder must not be reused afterwards.
//
// The builder must come from an engine with the same shard count: installing
// a mismatched builder would mis-route both queries and the mutation API,
// since shardOf partitions by the installed shard count.
func (e *Engine) Install(b *Builder) error {
	if len(b.shards) != e.cfg.Shards {
		return fmt.Errorf("engine: cannot install a %d-shard builder into a %d-shard engine (builders are engine-specific; use NewBuilder on this engine)",
			len(b.shards), e.cfg.Shards)
	}
	if b.cfg.Storage != e.cfg.Storage {
		return fmt.Errorf("engine: cannot install a %v-storage builder into a %v-storage engine",
			b.cfg.Storage, e.cfg.Storage)
	}
	perShard := e.cfg.Workers / len(b.shards)
	if perShard < 1 {
		perShard = 1
	}
	errs := make([]error, len(b.shards))
	var wg sync.WaitGroup
	for i, ix := range b.shards {
		wg.Add(1)
		go func(i int, ix *invindex.Index) {
			defer wg.Done()
			errs[i] = ix.BuildParallel(perShard)
		}(i, ix)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("engine: shard %d: %w", i, err)
		}
	}
	shards := make([]*shard, len(b.shards))
	for i, ix := range b.shards {
		shards[i] = newShard(ix)
	}
	e.mu.Lock()
	old := e.shards
	// Retire the outgoing shards BEFORE they become unreachable: a mutation
	// that snapshotted the old set re-checks the flag after locking its
	// shard (see lockShard) and retries against the new set, so an
	// acknowledged AddDocument/DeleteDocument can never land in a shard
	// this swap discards.
	for _, s := range old {
		s.mu.Lock()
		s.retired = true
		s.mu.Unlock()
	}
	e.shards = shards
	e.mu.Unlock()
	e.gen.Add(1)
	e.statsEpoch.Add(1) // new bases may store terms under new encodings
	e.met.rebuilds.Inc()
	return nil
}

// snapshot returns the current shard set, or nil before Install.
func (e *Engine) snapshot() []*shard {
	e.mu.RLock()
	shards := e.shards
	e.mu.RUnlock()
	return shards
}

// Result is one query's outcome.
type Result struct {
	// Docs is the page the query asked for: the first limit matching
	// document IDs, ascending — every match for the unlimited entry points
	// (Query, QueryBatch, Explain), none (nil) for count-only ones (limit 0,
	// QueryCount). The slice may be shared with the cache; callers must not
	// modify it.
	Docs []uint32
	// Count is the number of matching documents — the full result size,
	// whatever the page length; len(Docs) < Count means the page was cut.
	Count int
	// Normalized is the canonical form of the query (the cache key).
	Normalized string
	// Cached reports whether the result came from the LRU.
	Cached bool
}

// Query parses, plans and executes a query across all shards: the logical
// tree is normalized (the canonical form keys the result cache), lowered
// to one physical plan against engine-aggregate statistics, and the plan is
// executed per shard inside a pooled execution context (see execctx.go).
// The merged result is always a fresh slice — never aliasing a posting list
// or a pooled buffer — so it is safe to cache and to hand to the caller
// while the contexts are recycled into concurrent queries.
func (e *Engine) Query(q string) (*Result, error) {
	return e.QueryContext(context.Background(), q)
}

// QueryContext is Query bounded by a context: when ctx carries a deadline
// or is cancelled, the evaluation aborts mid-shard (the exec loops poll the
// context between operators) and the context's error is returned. The
// abort is clean — bounded worker slots are released, pooled execution
// contexts are recycled, and nothing partial lands in the result cache. A
// non-cancellable context (context.Background) costs one nil check per
// operator, keeping the uncontended fast path allocation-identical to
// Query.
func (e *Engine) QueryContext(ctx context.Context, q string) (*Result, error) {
	return e.QueryLimitContext(ctx, q, -1)
}

// QueryLimitContext is QueryContext returning only the page the caller
// reads: Result.Docs holds the first limit matching docs (all of them for
// a negative limit, none for 0) while Result.Count stays the full result
// size. The kernels still evaluate every shard in full — the count needs
// them — but the shard merge reads at most limit docs of each shard, and
// the result cache keeps the page as a prefix entry that serves any later
// lookup for a page no longer than it (see cache.go).
func (e *Engine) QueryLimitContext(ctx context.Context, q string, limit int) (*Result, error) {
	res, _, err := e.execute(ctx, q, modeQuery, limit)
	return res, err
}

// Explain is Query plus the executed physical plan rendered as an operator
// tree (kernel per conjunction, operand order, storage shapes, cardinality
// and cost estimates). The plan is rebuilt even on a cache hit, so the
// rendering always reflects current index statistics.
func (e *Engine) Explain(q string) (*Result, string, error) {
	return e.execute(context.Background(), q, modeExplain, -1)
}

// ExplainContext is Explain bounded by a context (see QueryContext).
func (e *Engine) ExplainContext(ctx context.Context, q string) (*Result, string, error) {
	return e.execute(ctx, q, modeExplain, -1)
}

// ExplainAnalyze executes the query with a full per-operator trace —
// bypassing the result cache, so the plan really runs — and renders the
// executed plan with measured rows and time next to each operator's
// estimates, followed by the stage and per-shard timing breakdown. This is
// the planner feedback surface: est_rows vs act_rows per operator is
// exactly the signal the ROADMAP's self-tuning planner consumes. The
// result is still written to the cache, so an analyzed query warms it like
// any other.
func (e *Engine) ExplainAnalyze(q string) (*Result, string, error) {
	return e.execute(context.Background(), q, modeAnalyze, -1)
}

// ExplainAnalyzeContext is ExplainAnalyze bounded by a context (see
// QueryContext).
func (e *Engine) ExplainAnalyzeContext(ctx context.Context, q string) (*Result, string, error) {
	return e.execute(ctx, q, modeAnalyze, -1)
}

// QueryCount executes q and returns only the number of matching documents:
// Result.Count is set and Result.Docs stays nil, also on a cache hit. It is
// QueryLimitContext with limit 0: per-shard result lengths are summed
// (shards partition the docID space, so the per-shard results are disjoint)
// without building or copying a merged slice, so a count costs strictly
// less than the query it counts.
func (e *Engine) QueryCount(q string) (*Result, error) {
	return e.QueryCountContext(context.Background(), q)
}

// QueryCountContext is QueryCount bounded by a context (see QueryContext).
func (e *Engine) QueryCountContext(ctx context.Context, q string) (*Result, error) {
	return e.QueryLimitContext(ctx, q, 0)
}

// Canonicalize parses q and returns its canonical (normalized) form — the
// key the result cache and the admission tier's request coalescer share.
// Two spellings with the same canonical form are the same query: they hit
// the same cache entry, and an admission layer may safely have them share
// one in-flight execution.
func (e *Engine) Canonicalize(q string) (string, error) {
	ast, err := plan.Parse(q)
	if err != nil {
		return "", err
	}
	return ast.String(), nil
}

// execMode selects what execute returns beyond the result.
type execMode uint8

const (
	modeQuery   execMode = iota // result only
	modeExplain                 // result + estimated plan (cache may serve the result)
	modeAnalyze                 // result + executed plan with actuals (cache bypassed)
)

// execute wraps executeQuery with the per-query observability: the query
// counter, the latency histogram, the sampling decision and the trace
// lifecycle. Timing is skipped entirely when neither the histograms nor a
// trace want it. limit is the page the caller reads (see QueryLimitContext).
func (e *Engine) execute(ctx context.Context, q string, mode execMode, limit int) (*Result, string, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m := e.met
	m.queries.Inc()
	var tr *obs.Trace
	if mode == modeAnalyze || m.sampleTrace() {
		tr = obs.GetTrace()
		tr.Query = q
	}
	var start time.Time
	timed := m.enabled || tr != nil
	if timed {
		start = time.Now()
	}
	res, expl, err := e.executeQuery(ctx, q, mode, limit, tr)
	if err != nil {
		m.queryErrors.Inc()
	}
	if timed {
		total := time.Since(start)
		if m.enabled {
			m.latency.Observe(total)
		}
		if tr != nil {
			tr.TotalNs = total.Nanoseconds()
			tr.Err = err != nil
			if m.enabled {
				for s, ns := range tr.Stages {
					if ns > 0 {
						m.stages[s].Observe(time.Duration(ns))
					}
				}
			}
			obs.PutTrace(tr)
		}
	}
	return res, expl, err
}

// stamp records the time since *t0 into tr's stage s and advances *t0.
// No-op without a trace, so call sites need no guards.
func stamp(tr *obs.Trace, s obs.Stage, t0 *time.Time) {
	if tr == nil {
		return
	}
	now := time.Now()
	tr.Stages[s] = now.Sub(*t0).Nanoseconds()
	*t0 = now
}

func (e *Engine) executeQuery(ctx context.Context, q string, mode execMode, limit int, tr *obs.Trace) (*Result, string, error) {
	if ctx.Done() != nil {
		// One up-front check so a request whose deadline expired while it
		// queued upstream never starts planning at all.
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
	}
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	ast, err := plan.Parse(q)
	if err != nil {
		return nil, "", err
	}
	stamp(tr, obs.StageParse, &t0)
	key := ast.String()
	stamp(tr, obs.StageNormalize, &t0)
	// Snapshot the index generation BEFORE the shard state: if a mutation or
	// Install lands while we evaluate, the entry we put below is stamped with
	// a superseded generation and can never be served.
	gen := e.gen.Load()
	var (
		docs  []uint32
		count int
		hit   bool
	)
	if mode != modeAnalyze {
		// Analyze mode bypasses the probe: its whole point is to measure a
		// real execution, and serving the cached docs would render every
		// operator "(not executed)".
		docs, count, hit = e.cache.get(key, gen, limit)
		stamp(tr, obs.StageCache, &t0)
	}
	if hit && tr != nil {
		tr.Cached = true
	}
	if hit && mode == modeQuery {
		return &Result{Docs: page(docs, limit), Count: count, Normalized: key, Cached: true}, "", nil
	}
	shards := e.snapshot()
	if shards == nil {
		return nil, "", ErrNotBuilt
	}
	var pc *planCtx
	if mode == modeExplain || mode == modeAnalyze {
		pc = getPlanCtx()
	}
	pp := e.lookupPlan(shards, ast, key, pc)
	stamp(tr, obs.StagePlan, &t0)
	expl := ""
	if mode == modeExplain {
		expl = pp.Explain() + e.algorithmNote()
	}
	if hit {
		putPlanCtx(pc)
		return &Result{Docs: page(docs, limit), Count: count, Normalized: key, Cached: true}, expl, nil
	}
	var agg *traceRec
	if tr != nil {
		agg = getTraceRec(len(pp.Ops))
	}
	merged, count, err := e.executePlan(ctx, shards, pp, tr, agg, limit)
	if err != nil {
		putTraceRec(agg)
		putPlanCtx(pc)
		return nil, "", err
	}
	if tr != nil {
		e.met.recordKernels(pp, agg)
		if e.fb != nil {
			harvestFeedback(e.fb, pp, agg)
		}
	}
	if mode == modeAnalyze {
		expl = renderAnalyze(pc, pp, agg, tr) + e.algorithmNote()
	}
	putTraceRec(agg)
	putPlanCtx(pc)
	e.cache.put(key, merged, count, gen)
	return &Result{Docs: merged, Count: count, Normalized: key}, expl, nil
}

// page returns the first limit docs of an ascending result prefix: all of
// them for a negative limit, nil for 0. The prefix is at least limit long
// or complete (cache.get guarantees it), so the page is never short.
func page(docs []uint32, limit int) []uint32 {
	if limit == 0 {
		return nil
	}
	if limit > 0 && limit < len(docs) {
		return docs[:limit]
	}
	return docs
}

// algorithmNote flags a configured intersection algorithm on explain
// output: the plan renders the cost model's choices, but a configured
// algorithm overrides them at execution (see listAlgorithm), so say so
// rather than show a kernel that never ran.
func (e *Engine) algorithmNote() string {
	if e.cfg.Algorithm == fastintersect.Auto {
		return ""
	}
	return fmt.Sprintf("note: Config.Algorithm=%v overrides the list-kernel choices above\n", e.cfg.Algorithm)
}

// renderAnalyze renders the executed plan with actuals plus the stage and
// per-shard breakdown of the trace. The OpActual arena rides on the plan
// context so steady-state analyze calls reuse it.
func renderAnalyze(pc *planCtx, pp *plan.Plan, agg *traceRec, tr *obs.Trace) string {
	if cap(pc.actuals) < len(agg.ops) {
		pc.actuals = make([]plan.OpActual, len(agg.ops))
	}
	pc.actuals = pc.actuals[:len(agg.ops)]
	for i, a := range agg.ops {
		pc.actuals[i] = plan.OpActual{Execs: a.execs, Rows: a.rows, Ns: a.ns}
	}
	var sb strings.Builder
	sb.WriteString(pp.ExplainAnalyze(pc.actuals))
	sb.WriteString("stages:")
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		if ns := tr.Stages[s]; ns > 0 {
			fmt.Fprintf(&sb, " %s=%s", s, fmtNs(ns))
		}
	}
	sb.WriteString("\n")
	for _, sp := range tr.Shards {
		fmt.Fprintf(&sb, "shard %d: rows=%d time=%s\n", sp.Shard, sp.Rows, fmtNs(sp.Ns))
	}
	return sb.String()
}

// fmtNs matches the plan package's cost rendering (ns/µs/ms).
func fmtNs(ns int64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// acquireWorker takes one bounded worker slot, or gives up when ctx is
// cancelled first — a query whose deadline expires while it waits for a
// slot must not start evaluating. The caller releases the slot with
// <-e.workers only after a nil return. Non-cancellable contexts take the
// plain channel send (no select overhead).
func (e *Engine) acquireWorker(ctx context.Context) error {
	done := ctx.Done()
	if done == nil {
		e.workers <- struct{}{}
		return nil
	}
	select {
	case e.workers <- struct{}{}:
		return nil
	case <-done:
		return ctx.Err()
	}
}

// lookupPlan returns the physical plan for the canonical form key. With pc
// nil it serves the plan cache: the plan memoized at the current epoch, or
// one built into a fresh cache-owned plan (shared read-only by later
// queries) and memoized. With pc non-nil — Explain and Analyze — it always
// rebuilds into pc's pooled arena, so the rendering reflects current
// statistics.
func (e *Engine) lookupPlan(shards []*shard, ast plan.Node, key string, pc *planCtx) *plan.Plan {
	stored := e.cfg.Storage == invindex.StorageCompressed
	if pc != nil {
		pc.stats.fill(shards)
		return plan.Build(&pc.plan, ast, key, &pc.stats, e.planCosts(), e.cfg.PlanPolicy, stored)
	}
	// The stats epoch is loaded BEFORE the statistics are read: if an
	// Install or compaction swaps bases in between, the plan built below is
	// stamped with the superseded epoch and rebuilt on its next lookup
	// instead of lingering with stale shapes. The feedback epoch is folded
	// in the same way: both counters only ever increase, so their sum
	// strictly increases whenever either bumps, and a published correction
	// snapshot re-prices every cached plan without plancache changes.
	epoch := e.statsEpoch.Load()
	if e.fb != nil {
		epoch += e.fb.Epoch()
	}
	if pp := e.plans.get(key, epoch); pp != nil {
		e.met.planHits.Inc()
		return pp
	}
	e.met.planMisses.Inc()
	pc = getPlanCtx()
	pc.stats.fill(shards)
	pp := plan.Build(new(plan.Plan), ast, key, &pc.stats, e.planCosts(), e.cfg.PlanPolicy, stored)
	putPlanCtx(pc)
	e.plans.put(key, pp, epoch)
	return pp
}

// executePlan runs one physical plan over the shard set (see fanOut) and
// merges the per-shard results into the page of limit docs (see
// mergeShards), returning the page and the full count. When the query is
// traced (tr and agg non-nil, always together), the per-operator actuals of
// every shard are merged into agg, and the per-shard spans and the
// exec/merge stage timings land on tr.
func (e *Engine) executePlan(ctx context.Context, shards []*shard, pp *plan.Plan, tr *obs.Trace, agg *traceRec, limit int) ([]uint32, int, error) {
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	qc := e.fanOut(ctx, shards, []*plan.Plan{pp}, agg, tr)
	if err := qc.err(0); err != nil {
		putQueryCtx(qc)
		return nil, 0, err
	}
	stamp(tr, obs.StageExec, &t0)
	merged, count := mergeShards(qc.row(0), limit)
	putQueryCtx(qc)
	stamp(tr, obs.StageMerge, &t0)
	return merged, count, nil
}

// fanOut is the engine's one shard fan-out: every shard runs plans, in
// order, on one pooled execution context under one bounded worker slot
// (see runShard), so a batch shares each shard's decode memo across all of
// its plans. Shards 1..n−1 run on their own goroutines and shard 0 on the
// calling goroutine, so a single-shard engine spawns none. The returned
// queryCtx holds one result cell per (plan, shard); the caller reads them
// with row/err and releases everything with putQueryCtx.
//
// Tracing is for single plans: with agg non-nil, each shard records its
// per-operator actuals into a context-local traceRec, and once the shards
// rejoin the recordings are merged into agg and a per-shard span lands on
// tr.
//
// Abort discipline: a cancelled context or a failing/panicking shard never
// leaks resources. Worker slots are released by deferred receives, every
// execCtx drawn here is returned through putQueryCtx on all paths, and the
// fan-out always rejoins (wg.Wait) before returning — a worker observing the
// cancellation aborts at its next poll, so no goroutine outlives the call.
func (e *Engine) fanOut(ctx context.Context, shards []*shard, plans []*plan.Plan, agg *traceRec, tr *obs.Trace) *queryCtx {
	qc := getQueryCtx(len(shards), len(plans))
	qc.ctx, qc.shards, qc.traced = ctx, shards, agg != nil
	qc.plans = append(qc.plans, plans...)
	qc.wg.Add(len(shards) - 1)
	for i := 1; i < len(shards); i++ {
		go func(i int) {
			defer qc.wg.Done()
			e.runShard(qc, i)
		}(i)
	}
	// Shard 0 holds its worker slot only while it evaluates, never while
	// waiting for the others, so even Workers: 1 cannot self-deadlock.
	e.runShard(qc, 0)
	qc.wg.Wait()
	if agg != nil {
		for i, c := range qc.ctxs {
			if c == nil || c.rec == nil {
				continue
			}
			agg.merge(c.rec)
			tr.Shards = append(tr.Shards, obs.ShardSpan{Shard: i, Rows: len(qc.results[i]), Ns: c.rec.shardNs})
			putTraceRec(c.rec)
			c.rec = nil
		}
	}
	return qc
}

// runShard evaluates every plan of qc on shard i. It takes one bounded
// worker slot — Config.Workers caps shard evaluations across ALL in-flight
// queries — giving up when the context is cancelled first, so a queued
// query never starts evaluating; each plan of the shard then reports the
// context error.
func (e *Engine) runShard(qc *queryCtx, i int) {
	n := len(qc.shards)
	if err := e.acquireWorker(qc.ctx); err != nil {
		for j := range qc.plans {
			qc.errs[j*n+i] = err // no slot held, no context drawn
		}
		return
	}
	defer func() { <-e.workers }()
	c := getExecCtx()
	c.attachCtx(qc.ctx)
	qc.ctxs[i] = c
	var start time.Time
	if qc.traced {
		c.rec = getTraceRec(len(qc.plans[0].Ops))
		start = time.Now()
	}
	for j, p := range qc.plans {
		cell := j*n + i
		qc.results[cell], qc.owned[cell], qc.errs[cell] = e.evalShard(c, qc.shards[i], i, p)
	}
	if qc.traced {
		c.rec.shardNs = time.Since(start).Nanoseconds()
	}
}

// mergeShards combines one plan's per-shard sorted results into the page
// the caller reads — the first limit docs, all of them for a negative
// limit, nil for 0 — and the full count. Shards partition the document
// space, so the results are disjoint: the count is the plain sum of their
// lengths, and the page is a pure interleave written into a fresh
// exactly-sized slice, which never aliases a posting list or a pooled
// buffer. A full result takes the heap-based k-way union; a page shorter
// than the result takes mergeFirst, which reads at most limit docs of each
// shard, so its cost follows the page and not the result.
func mergeShards(row [][]uint32, limit int) ([]uint32, int) {
	total := 0
	for _, r := range row {
		total += len(r)
	}
	switch {
	case limit == 0:
		return nil, total
	case limit < 0 || limit >= total:
		return sets.UnionKInto(make([]uint32, 0, total), row...), total
	}
	return mergeFirst(row, limit), total
}

// mergeFirst returns the n smallest docs of the disjoint sorted lists in
// row, which must hold at least n docs between them, in a fresh n-long
// slice. Each output takes the least head by a linear scan over the
// lists: with a page of n docs over k shards that is n·k comparisons and
// no heap upkeep, which beats sifting for the few shards an engine has.
func mergeFirst(row [][]uint32, n int) []uint32 {
	var posArr [16]int
	pos := posArr[:]
	if len(row) > len(pos) {
		pos = make([]int, len(row))
	}
	out := make([]uint32, n)
	for i := range out {
		best := -1
		var least uint32
		for s, r := range row {
			if p := pos[s]; p < len(r) && (best < 0 || r[p] < least) {
				best, least = s, r[p]
			}
		}
		out[i] = least
		pos[best]++
	}
	return out
}

// EncodingStat aggregates the posting lists stored under one encoding
// across all shards.
type EncodingStat struct {
	Lists           int     `json:"lists"`
	Postings        uint64  `json:"postings"`
	Bytes           uint64  `json:"bytes"`
	BytesPerPosting float64 `json:"bytes_per_posting"`
}

// PostingStats is the engine-wide posting-payload accounting for the base
// segments: how many bytes the frozen indexes actually hold versus the
// 4-byte-per-posting raw footprint, broken down per encoding. Delta-segment
// postings are accounted separately in DeltaStats.
type PostingStats struct {
	Total           uint64                  `json:"total"`
	RawBytes        uint64                  `json:"raw_bytes"`
	StoredBytes     uint64                  `json:"stored_bytes"`
	BytesPerPosting float64                 `json:"bytes_per_posting"`
	Encodings       map[string]EncodingStat `json:"encodings"`
}

// DeltaStats is the point-in-time accounting of the mutable tier across all
// shards: the in-memory segments above the base (frozen tier plus the
// active segment) and the tombstone filters.
type DeltaStats struct {
	// Docs is the number of documents currently held by in-memory segments
	// (frozen tier + active, including tombstoned frozen documents).
	Docs int `json:"docs"`
	// Postings is the total posting count across in-memory segments.
	Postings int `json:"postings"`
	// Tombstones is the total tombstoned docID count across every segment's
	// filter (including the suppression tombstones that shadow older copies
	// of rewritten documents).
	Tombstones int `json:"tombstones"`
	// Segments is the total frozen in-memory segment count across shards.
	Segments int `json:"segments"`
	// CompactingShards is the number of shards with a claimed (possibly not
	// yet started) background compaction.
	CompactingShards int `json:"compacting_shards"`
}

// Generation returns the current index generation — bumped by every
// Install and every effective document mutation. Unlike Stats, it is a
// single atomic load, cheap enough for per-request use.
func (e *Engine) Generation() uint64 { return e.gen.Load() }

// Stats is a point-in-time snapshot of the engine.
type Stats struct {
	Shards      int          `json:"shards"`
	Storage     string       `json:"storage"`
	Docs        uint64       `json:"docs"`
	Terms       int          `json:"terms"`
	ShardTerms  []int        `json:"shard_terms,omitempty"`
	Postings    PostingStats `json:"postings"`
	Queries     uint64       `json:"queries"`
	QueryErrors uint64       `json:"query_errors"`
	Rebuilds    uint64       `json:"rebuilds"`
	Mutations   uint64       `json:"mutations"`
	Compactions uint64       `json:"compactions"`
	// SegmentFreezes / SegmentMerges / CompactionBytes are the tiered
	// lifecycle counters: active-segment freezes, size-tiered merges, and
	// the bytes written by merges and rebuilds (the write-amplification
	// numerator; 4 bytes per posting written).
	SegmentFreezes  uint64 `json:"segment_freezes"`
	SegmentMerges   uint64 `json:"segment_merges"`
	CompactionBytes uint64 `json:"compaction_bytes"`
	// ShardSegments is the per-shard segment count (1 base + frozen tier).
	ShardSegments []int  `json:"shard_segments,omitempty"`
	Generation    uint64 `json:"generation"`
	// StatsEpoch counts representation changes (installs + compaction
	// swaps); PlanCacheEntries is the number of physical plans memoized
	// against the current epoch's statistics.
	StatsEpoch       uint64     `json:"stats_epoch"`
	PlanCacheEntries int        `json:"plan_cache_entries"`
	Delta            DeltaStats `json:"delta"`
	Workers          int        `json:"workers"`
	Cache            CacheStats `json:"cache"`
	// PlanFeedback reports whether the adaptive planning loop is on; the
	// fields below it are zero when it is off. FeedbackEpoch counts
	// published correction snapshots (each invalidates the plan cache),
	// FeedbackRefits the re-fit passes run, FeedbackObservations the
	// harvested operator samples, EstRowsError the last window's relative
	// cardinality-estimate error, and KernelCorrections the current
	// non-unit multiplicative corrections by kernel name.
	PlanFeedback         bool               `json:"plan_feedback"`
	FeedbackEpoch        uint64             `json:"feedback_epoch,omitempty"`
	FeedbackRefits       uint64             `json:"feedback_refits,omitempty"`
	FeedbackObservations uint64             `json:"feedback_observations,omitempty"`
	EstRowsError         float64            `json:"est_rows_error,omitempty"`
	KernelCorrections    map[string]float64 `json:"kernel_corrections,omitempty"`
	// KernelExecs counts conjunction-kernel executions observed in sampled
	// traces, by the kernel that actually ran (the shard-level re-pricing,
	// not the logical plan's pick). Only non-zero kernels appear; nil when
	// metrics are disabled.
	KernelExecs map[string]uint64 `json:"kernel_execs,omitempty"`
}

// Stats returns current counters. Docs counts distinct live documents:
// distinct docIDs indexed by the base segments, plus documents added through
// AddDocument, minus deleted ones. Terms counts distinct (term, shard) pairs
// over the base segments: a term whose postings span k shards contributes k.
func (e *Engine) Stats() Stats {
	shards := e.snapshot()
	st := Stats{
		Shards:          e.cfg.Shards,
		Storage:         e.cfg.Storage.String(),
		Postings:        PostingStats{Encodings: map[string]EncodingStat{}},
		Queries:         e.met.queries.Value(),
		QueryErrors:     e.met.queryErrors.Value(),
		Rebuilds:        e.met.rebuilds.Value(),
		Mutations:       e.met.mutations.Value(),
		Compactions:     e.met.compactions.Value(),
		SegmentFreezes:  e.met.segmentFreezes.Value(),
		SegmentMerges:   e.met.segmentMerges.Value(),
		CompactionBytes: e.met.compactionBytes.Value(),
		Generation:      e.gen.Load(),
		StatsEpoch:      e.statsEpoch.Load(),
		Workers:         e.cfg.Workers,
		Cache:           e.cache.stats(),
	}
	st.PlanCacheEntries = e.plans.entries()
	if e.met.enabled {
		for k := plan.Kernel(1); int(k) < plan.KernelCount; k++ {
			if n := e.met.kernelExecs[k].Value(); n > 0 {
				if st.KernelExecs == nil {
					st.KernelExecs = map[string]uint64{}
				}
				st.KernelExecs[k.String()] = n
			}
		}
	}
	if e.fb != nil {
		st.PlanFeedback = true
		st.FeedbackEpoch = e.fb.Epoch()
		st.FeedbackRefits = e.fb.Refits()
		st.FeedbackObservations = e.fb.Observations()
		st.EstRowsError = e.fb.RowsError()
		for k := plan.Kernel(1); int(k) < plan.KernelCount; k++ {
			if c := e.fb.Correction(k); c != 1 {
				if st.KernelCorrections == nil {
					st.KernelCorrections = map[string]float64{}
				}
				st.KernelCorrections[k.String()] = c
			}
		}
	}
	for _, s := range shards {
		s.mu.RLock()
		ix := s.base
		st.Docs += uint64(s.liveLocked())
		st.Delta.Docs += s.active.NumDocs()
		st.Delta.Postings += s.active.NumPostings()
		for _, f := range s.frozen {
			st.Delta.Docs += f.NumDocs()
			st.Delta.Postings += f.NumPostings()
			st.Delta.Tombstones += len(f.Tombs())
		}
		st.Delta.Segments += len(s.frozen)
		st.ShardSegments = append(st.ShardSegments, 1+len(s.frozen))
		if s.compacting {
			st.Delta.CompactingShards++
		}
		st.Delta.Tombstones += len(s.baseTombs)
		s.mu.RUnlock()
		st.Terms += ix.TermCount()
		st.ShardTerms = append(st.ShardTerms, ix.TermCount())
		ms := ix.MemStats()
		st.Postings.Total += ms.Postings
		st.Postings.RawBytes += ms.RawBytes
		st.Postings.StoredBytes += ms.StoredBytes
		for enc, es := range ms.Encodings {
			agg := st.Postings.Encodings[enc]
			agg.Lists += es.Lists
			agg.Postings += es.Postings
			agg.Bytes += es.Bytes
			st.Postings.Encodings[enc] = agg
		}
	}
	if st.Postings.Total > 0 {
		st.Postings.BytesPerPosting = float64(st.Postings.StoredBytes) / float64(st.Postings.Total)
	}
	for enc, agg := range st.Postings.Encodings {
		if agg.Postings > 0 {
			agg.BytesPerPosting = float64(agg.Bytes) / float64(agg.Postings)
			st.Postings.Encodings[enc] = agg
		}
	}
	return st
}
