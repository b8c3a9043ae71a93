// Command servebench is the serving benchmark. It builds fsiserve from the
// tree under test, starts it on loopback, drives it from one process with a
// closed loop of pre-generated requests, checks every reply against its own
// reference copy of the corpus, and prints one JSON result line.
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 it
// holds the per-layer metrics of a traced run. See README.md.
//
//	bash servebench/run.sh --workload hot --seed 1 --seconds 6 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"fastintersect/internal/plan"
	"fastintersect/internal/workload"
)

// setupRuns is how many fresh servers an end-to-end run starts, one after
// another; each serves a third of the timed phase, and every metric is the
// median over them.
const setupRuns = 3

const (
	// replaySpans bounds the traced in-process replay: it stops early when
	// the recorder could not hold another op's spans.
	replaySpans = 500_000
	// parseQueries is how many queries the plan.Parse spans and the
	// allocation loops run.
	parseQueries = 2_000
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName = flag.String("workload", "", "workload: hot, cold, churn, or all (each in turn)")
		seed         = flag.Uint64("seed", 1, "corpus and op-stream seed")
		seconds      = flag.Int("seconds", 6, "length of the timed phase in seconds")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		root         = flag.String("root", ".", "checkout to build fsiserve from")
		buildDir     = flag.String("build", ".bench_build", "directory for the server binary and trace files")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need -seconds ≥ 1 and -trace 0 or 1")
		return 2
	}
	var specs []workloadSpec
	if *workloadName == "all" {
		specs = workloads
	} else if w, ok := findWorkload(*workloadName); ok {
		specs = []workloadSpec{w}
	} else {
		fmt.Fprintf(os.Stderr, "servebench: unknown -workload %q (want hot, cold, churn or all)\n", *workloadName)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(*buildDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*buildDir, "fsiserve-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	bin, err := buildServer(ctx, *root, tmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		return 1
	}
	b := &bench{bin: bin, buildDir: *buildDir, seed: *seed, seconds: *seconds}
	results := map[string]*result{}
	code := 0
	for _, w := range specs {
		var res *result
		if *trace == 1 {
			res, err = b.traced(ctx, w)
		} else {
			res, err = b.endToEnd(ctx, w)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "servebench: %s: %v\n", w.name, err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
		results[w.name] = res
	}
	var line []byte
	if len(specs) == 1 {
		line, err = json.Marshal(results[specs[0].name])
	} else {
		line, err = json.Marshal(results)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return code
}

// bench holds what every run of one invocation shares.
type bench struct {
	bin      string
	buildDir string
	seed     uint64
	seconds  int
}

// prepared is a workload's generated inputs and oracle.
type prepared struct {
	w      workloadSpec
	corpus *workload.Real
	ref    *reference
	oracle *memoOracle // shared by every server of the run: they replay the same queries
	ops    *opSet
}

func (b *bench) prepare(w workloadSpec) (*prepared, error) {
	cfg := corpusConfig(w, b.seed)
	start := time.Now()
	corpus := workload.NewReal(cfg)
	ops, err := generateOps(w, corpus, b.seed, b.seconds)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s: seed %d, %d docs, %d terms, inputs generated in %v\n",
		w.name, b.seed, w.docs, w.terms, time.Since(start).Round(time.Millisecond))
	for _, d := range ops.digests() {
		fmt.Printf("  digest %s\n", d)
	}
	ref := newReference(corpus)
	return &prepared{w: w, corpus: corpus, ref: ref, oracle: &memoOracle{ref: ref, memo: map[string][]uint32{}}, ops: ops}, nil
}

// serverArgs are the only flags the server gets: corpus size and seed, the
// workload's compaction threshold, and trace sampling for traced runs.
func serverArgs(w workloadSpec, seed uint64, traced bool) []string {
	args := []string{"-docs", fmt.Sprint(w.docs), "-terms", fmt.Sprint(w.terms), "-seed", fmt.Sprint(seed)}
	if w.compact > 0 {
		args = append(args, "-compact", fmt.Sprint(w.compact))
	}
	if traced {
		args = append(args, "-trace-sample", "1")
	}
	return args
}

// phase is one fresh server driven through warm-up, the timed closed loop,
// the write tail and the final-state check.
type phase struct {
	setup  time.Duration
	warm   *loopResult
	kept   *slice        // the timed slice the metrics come from
	slices []*loopResult // every timed slice sent, kept among them, in order
	tail   *loopResult
	check  *loopResult
	before promSample // scraped after the warm-up
	after  promSample // scraped after the tail and the check
	end    serverStats
	rss    float64
}

const (
	// maxSteal is the share of the VM's CPU time the hypervisor may take
	// during a timed slice before the slice is measured again.
	maxSteal = 0.05
	// maxRetries bounds the extra slices one server runs.
	maxRetries = 1
)

// stolen reports whether the hypervisor took more than maxSteal of the
// VM's CPU time during an interval of length d.
func stolen(steal float64, d time.Duration) bool {
	return steal > maxSteal*d.Seconds()*float64(runtime.NumCPU())
}

// slice is one timed closed loop with the /metrics scrapes around it.
type slice struct {
	loop        *loopResult
	before, mid promSample
	steal       float64   // host CPU seconds stolen from this VM during the loop
	segSamples  []float64 // mean segments per shard, sampled during the loop (traced)
}

// timedSlice runs one timed closed loop over the clients' op lists,
// starting at from.
func timedSlice(ctx context.Context, srv *server, p *prepared, timed time.Duration, traced bool, from [numClients]int) (*slice, error) {
	a := &slice{}
	var err error
	if a.before, err = srv.metrics(); err != nil {
		return nil, err
	}
	cfg := loopConfig{lists: p.ops.clients, from: from, cycle: p.ops.cycle, limit: timed, keepBodies: p.w.name != "churn"}
	if traced {
		cfg.minOps = p.w.tracedOps
		cfg.everyPeriod = 500 * time.Millisecond
		cfg.every = func(c *conn) {
			status, body, err := c.roundTrip([]byte("GET /metrics HTTP/1.1\r\n"+host+"\r\n"), nil)
			if err != nil || status != 200 {
				return
			}
			if m, err := parseProm(string(body)); err == nil {
				var sum, n float64
				for k, v := range m {
					if strings.HasPrefix(k, "fsi_segments{") {
						sum += v
						n++
					}
				}
				if n > 0 {
					a.segSamples = append(a.segSamples, sum/n)
				}
			}
		}
	}
	steal0 := stealSeconds()
	a.loop = closedLoop(ctx, srv.addr, cfg)
	a.steal = stealSeconds() - steal0
	if a.mid, err = srv.metrics(); err != nil {
		return nil, err
	}
	return a, nil
}

func (b *bench) runPhase(ctx context.Context, p *prepared, timed time.Duration, traced bool) (ph *phase, err error) {
	ph = &phase{}
	srv, setup, err := startServer(ctx, b.bin, serverArgs(p.w, b.seed, traced))
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	ph.setup = setup

	st, err := srv.stats()
	if err != nil {
		return nil, err
	}
	if st.Docs != p.ref.docs || st.Terms != p.ref.termShardPairs() {
		return nil, fmt.Errorf("server corpus differs from the reference: /stats docs %d terms %d, reference docs %d terms %d",
			st.Docs, st.Terms, p.ref.docs, p.ref.termShardPairs())
	}
	half := len(p.ops.warm) / 2
	ph.warm = closedLoop(ctx, srv.addr, loopConfig{
		lists: [numClients][]op{p.ops.warm[:half], p.ops.warm[half:]}, keepBodies: true})
	if ph.before, err = srv.metrics(); err != nil {
		return nil, err
	}
	// A timed slice during which the hypervisor took more than maxSteal of
	// the VM's CPU measures the host, not the program: it is run again,
	// continuing the op lists, and the least disturbed slice is kept. Every
	// slice's replies are still verified.
	var from [numClients]int
	for attempt := 0; ; attempt++ {
		a, err := timedSlice(ctx, srv, p, timed, traced, from)
		if err != nil {
			return nil, err
		}
		ph.slices = append(ph.slices, a.loop)
		if ph.kept == nil || a.steal < ph.kept.steal {
			ph.kept = a
		}
		from = a.loop.next
		if !stolen(a.steal, timed) || attempt == maxRetries {
			break
		}
		fmt.Printf("  host steal %.2fs during a %v slice; measuring another\n", a.steal, timed)
	}
	ph.tail = closedLoop(ctx, srv.addr, loopConfig{lists: p.ops.tail})
	ph.check = closedLoop(ctx, srv.addr, loopConfig{lists: [numClients][]op{p.ops.check}, keepBodies: true})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ph.after, err = srv.metrics(); err != nil {
		return nil, err
	}
	if ph.end, err = srv.stats(); err != nil {
		return nil, err
	}
	if ph.rss, err = srv.peakRSSMiB(); err != nil {
		return nil, err
	}
	if ph.kept.loop.exhausted > 0 {
		fmt.Printf("  note: %d client(s) used up their pre-generated ops before %v\n", ph.kept.loop.exhausted, timed)
	}
	return ph, nil
}

// tally counts requests by op kind, and the admission gate's queued and
// shed requests.
type tally struct {
	attempted, failed [numOpKinds]int
	queued, shed      float64
	mismatches        []string // the first few wrong results, for the report
}

func (t *tally) add(k opKind, ok bool, why string) {
	t.attempted[k]++
	if !ok {
		t.failed[k]++
		if len(t.mismatches) < 5 && why != "" {
			t.mismatches = append(t.mismatches, why)
		}
	}
}

func (t *tally) merge(o *tally) {
	for k := range t.attempted {
		t.attempted[k] += o.attempted[k]
		t.failed[k] += o.failed[k]
	}
	t.queued += o.queued
	t.shed += o.shed
	t.mismatches = append(t.mismatches, o.mismatches...)
}

func (t *tally) totals() (attempted, failed int) {
	for k := range t.attempted {
		attempted += t.attempted[k]
		failed += t.failed[k]
	}
	return
}

// verify checks every reply of a phase, off the clock. Query replies are
// compared with the reference corpus where the index state is known: all
// of hot and cold, and churn's warm-up (before any write) and its final
// check (against the model after every write). Writes are checked against
// the model: add → 200, delete → 200 if the doc is present, else 404.
// Transport errors, 5xx, 429 and 503 are failures everywhere.
func verify(p *prepared, ph *phase) *tally {
	t := &tally{}
	t.queued, t.shed = admissionCounts(ph.before, ph.after)
	mdl := newModel(p.ref)
	half := len(p.ops.warm) / 2
	queries := func(l *loopResult, lists [numClients][]op, want func(query) []uint32) {
		for c, recs := range l.recs {
			for _, r := range recs {
				o := &lists[c][r.op]
				if o.kind != opQuery {
					continue
				}
				if r.status != 200 {
					t.add(opQuery, false, fmt.Sprintf("%s: status %d", o.q.text, r.status))
					continue
				}
				if want == nil {
					t.add(opQuery, true, "")
					continue
				}
				err := checkReply(l.body(c, r), want(o.q))
				why := ""
				if err != nil {
					why = fmt.Sprintf("%s: %v", o.q.text, err)
				}
				t.add(opQuery, err == nil, why)
			}
		}
	}
	writes := func(l *loopResult, lists [numClients][]op) {
		for c, recs := range l.recs {
			for _, r := range recs {
				o := &lists[c][r.op]
				if o.kind == opQuery {
					continue
				}
				want := mdl.apply(*o)
				why := ""
				if int(r.status) != want {
					why = fmt.Sprintf("%v doc %d: status %d, model %d", o.kind, o.doc, r.status, want)
				}
				t.add(o.kind, int(r.status) == want, why)
			}
		}
	}
	queries(ph.warm, [numClients][]op{p.ops.warm[:half], p.ops.warm[half:]}, p.oracle.want)
	for _, l := range ph.slices {
		if p.w.name == "churn" {
			queries(l, p.ops.clients, nil)
		} else {
			queries(l, p.ops.clients, p.oracle.want)
		}
		writes(l, p.ops.clients)
	}
	writes(ph.tail, p.ops.tail)
	queries(ph.check, [numClients][]op{p.ops.check}, func(q query) []uint32 { return evalQuery(q, mdl.list) })
	return t
}

// latencies splits a loop's round trips into queries and writes.
func latencies(l *loopResult, lists [numClients][]op) (queries, writes []int64, bodyBytes int64) {
	for c, recs := range l.recs {
		for _, r := range recs {
			if lists[c][r.op].kind == opQuery {
				queries = append(queries, r.lat)
				bodyBytes += int64(r.n)
			} else {
				writes = append(writes, r.lat)
			}
		}
	}
	return
}

// writeLatencies are churn's timed writes, or the write tail elsewhere.
func writeLatencies(p *prepared, ph *phase) []int64 {
	_, w, _ := latencies(ph.kept.loop, p.ops.clients)
	if len(w) == 0 {
		_, w, _ = latencies(ph.tail, p.ops.tail)
	}
	return w
}

func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// admissionCounts are the gate's queued requests and its shed plus
// rejected totals between two scrapes.
func admissionCounts(before, after promSample) (queued, shed float64) {
	queued = delta(before, after, "fsi_queue_wait_seconds_count")
	for k := range after {
		if strings.HasPrefix(k, "fsi_admission_shed_total") || strings.HasPrefix(k, "fsi_admission_rejected_total") {
			shed += delta(before, after, k)
		}
	}
	return
}

// report prints the failure accounting and closes a result.
func report(w workloadSpec, t *tally, metrics map[string]metricValue) *result {
	attempted, failed := t.totals()
	for k := opKind(0); k < numOpKinds; k++ {
		if t.attempted[k] > 0 {
			fmt.Printf("  %-6s attempted %d succeeded %d failed %d\n", k, t.attempted[k], t.attempted[k]-t.failed[k], t.failed[k])
		}
	}
	fmt.Printf("  error_rate %.6f fraction (admission.queued %.0f, admission.shed %.0f)\n",
		ratio(float64(failed), float64(attempted)), t.queued, t.shed)
	for _, m := range t.mismatches {
		fmt.Printf("  FAILED %s\n", m)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	verdict := "correct"
	if failed > 0 {
		verdict = "INCORRECT"
	}
	fmt.Printf("  %s: %s\n", w.name, verdict)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
}

// endToEnd starts setupRuns fresh servers in turn, drives each for a third
// of the run, and reports every metric as the median over the servers.
func (b *bench) endToEnd(ctx context.Context, w workloadSpec) (*result, error) {
	p, err := b.prepare(w)
	if err != nil {
		return nil, err
	}
	slice := time.Duration(b.seconds) * time.Second / setupRuns
	t := &tally{}
	per := map[string][]float64{}
	for i := 0; i < setupRuns; i++ {
		ph, err := b.runPhase(ctx, p, slice, false)
		if err != nil {
			return nil, err
		}
		vStart := time.Now()
		t.merge(verify(p, ph))
		verified := time.Since(vStart)
		m, err := endToEndMetrics(p, ph)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			per[k] = append(per[k], v)
		}
		fmt.Printf("  server %d: setup %.3fs, %d ops in %v, host steal %.2fs, verified in %v\n",
			i+1, ph.setup.Seconds(), ph.kept.loop.count(), ph.kept.loop.elapsed.Round(time.Millisecond), ph.kept.steal,
			verified.Round(time.Millisecond))
	}
	m := map[string]metricValue{}
	for _, s := range endToEnd {
		m[s.name] = metricValue{median(per[s.name]), s.unit}
	}
	fmt.Printf("  query_p99_us %.4f us, write_p99_us %.4f us (medians over the servers; not bounded)\n",
		median(per["query_p99_us"]), median(per["write_p99_us"]))
	return report(w, t, m), nil
}

// endToEndMetrics are one server's end-to-end metrics.
func endToEndMetrics(p *prepared, ph *phase) (map[string]float64, error) {
	q, _, _ := latencies(ph.kept.loop, p.ops.clients)
	qs, ws := summarize(q), summarize(writeLatencies(p, ph))
	m := map[string]float64{}
	for _, x := range []struct {
		name string
		l    latencySummary
		p    float64
	}{{"query_p50_us", qs, 50}, {"query_p99_us", qs, 99}, {"write_p50_us", ws, 50}, {"write_p99_us", ws, 99}} {
		v, err := x.l.us(x.p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", x.name, err)
		}
		m[x.name] = v
	}
	fmt.Printf("  samples: %d queries, %d writes\n", qs.n(), ws.n())
	m["throughput_ops"] = float64(ph.kept.loop.count()) / ph.kept.loop.elapsed.Seconds()
	m["setup_s"] = ph.setup.Seconds()
	m["server_rss_mb"] = ph.rss
	m["bytes_per_posting"] = ph.end.Postings.BytesPerPosting
	return m, nil
}

func (b *bench) traced(ctx context.Context, w workloadSpec) (*result, error) {
	// The first plan.Calibrated call measures the cost model; nothing in
	// this process has planned a query yet.
	calStart := time.Now()
	plan.Calibrated()
	calibrateS := time.Since(calStart).Seconds()

	p, err := b.prepare(w)
	if err != nil {
		return nil, err
	}
	timed := time.Duration(b.seconds) * time.Second
	plain, err := b.runPhase(ctx, p, timed, false)
	if err != nil {
		return nil, err
	}
	ph, err := b.runPhase(ctx, p, timed, true)
	if err != nil {
		return nil, err
	}
	t := verify(p, plain)
	t.merge(verify(p, ph))

	m := map[string]metricValue{}
	set := func(name string, v float64) {
		for _, s := range perLayer {
			if s.name == name {
				m[name] = metricValue{v, s.unit}
				return
			}
		}
		panic("unknown metric " + name)
	}
	set("plan.calibrate_s", calibrateS)
	e2e, err := endToEndMetrics(p, plain)
	if err != nil {
		return nil, err
	}
	set("fsiserve.query_p99_us", e2e["query_p99_us"])
	set("fsiserve.write_p99_us", e2e["write_p99_us"])
	b.serverLayers(p, ph, set)
	set("trace.overhead.server", (float64(ph.kept.loop.count())/ph.kept.loop.elapsed.Seconds())/
		(float64(plain.kept.loop.count())/plain.kept.loop.elapsed.Seconds()))
	if err := b.inprocLayers(ctx, p, set); err != nil {
		return nil, err
	}
	for _, s := range perLayer {
		if _, ok := m[s.name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", s.name)
		}
	}
	return report(w, t, m), nil
}

// serverLayers derives the per-layer metrics of the traced server from the
// /metrics and /stats deltas over its timed loop and from the client's view.
func (b *bench) serverLayers(p *prepared, ph *phase, set func(string, float64)) {
	bef, aft := ph.kept.before, ph.kept.mid
	q, _, bodyBytes := latencies(ph.kept.loop, p.ops.clients)
	queries := float64(len(q))
	handler, _ := histMean(bef, aft, "fsi_http_request_seconds", `{path="/query"}`)
	engineQ, _ := histMean(bef, aft, "fsi_query_latency_seconds", "")
	set("fsiserve.handler_us", handler*1e6)
	set("fsiserve.self_us", (handler-engineQ)*1e6)
	set("fsiserve.wire_us", summarize(q).meanUS()-handler*1e6)
	set("fsiserve.resp_bytes", ratio(float64(bodyBytes), queries))
	// Writes are churn's timed ones, or the write tail on hot and cold, so
	// they are taken up to the final scrape.
	var wSum, wN float64
	for _, path := range []string{"/index/doc", "/index/doc/:id"} {
		wSum += delta(ph.before, ph.after, `fsi_http_request_seconds_sum{path="`+path+`"}`)
		wN += delta(ph.before, ph.after, `fsi_http_request_seconds_count{path="`+path+`"}`)
	}
	set("fsiserve.write_handler_us", ratio(wSum, wN)*1e6)

	queued, shed := admissionCounts(ph.before, ph.after)
	set("admission.queued", queued)
	set("admission.shed", shed)
	set("admission.coalesced_ratio", ratio(delta(bef, aft, "fsi_coalesced_queries_total"),
		delta(bef, aft, `fsi_http_requests_total{path="/query"}`)))

	engQueries := delta(bef, aft, "fsi_queries_total")
	set("plan.cache_hit_ratio", 1-ratio(delta(bef, aft, "fsi_plan_cache_misses_total"), engQueries))
	hits, misses := delta(bef, aft, "fsi_cache_hits_total"), delta(bef, aft, "fsi_cache_misses_total")
	set("engine.cache_hit_ratio", ratio(hits, hits+misses))
	set("engine.cache_stale_ratio", ratio(delta(bef, aft, "fsi_cache_stale_total"), hits+misses))
	for _, s := range []string{"parse", "normalize", "cache", "plan", "exec", "merge"} {
		set("engine.stage."+s+"_us", ratio(delta(bef, aft, `fsi_query_stage_seconds_sum{stage="`+s+`"}`), engQueries)*1e6)
	}

	var segs float64
	for _, v := range ph.kept.segSamples {
		segs += v
	}
	set("segment.per_shard", ratio(segs, float64(len(ph.kept.segSamples))))
	set("segment.freezes", delta(bef, aft, "fsi_segment_freezes_total"))
	set("segment.merges", delta(bef, aft, "fsi_segment_merges_total"))
	var added float64
	for c, recs := range ph.kept.loop.recs {
		for _, r := range recs {
			if o := p.ops.clients[c][r.op]; o.kind == opAdd {
				added += float64(len(o.terms))
			}
		}
	}
	set("segment.write_amp", ratio(delta(bef, aft, "fsi_compaction_bytes_total"), 4*added))
	set("segment.tombstones", float64(ph.end.Delta.Tombstones))

	var ns, execs, rows float64
	for k := range aft {
		switch {
		case strings.HasPrefix(k, "fsi_kernel_ns_total{"):
			ns += delta(bef, aft, k)
		case strings.HasPrefix(k, "fsi_kernel_executions_total{"):
			execs += delta(bef, aft, k)
		case strings.HasPrefix(k, "fsi_kernel_rows_total{"):
			rows += delta(bef, aft, k)
		}
	}
	executed := misses // queries that ran the planner's kernels
	set("kernels.ns_per_query", ratio(ns, executed))
	for _, k := range reportedKernels {
		set("kernels.execs."+k.String(), ratio(delta(bef, aft, `fsi_kernel_executions_total{kernel="`+k.String()+`"}`), executed))
	}
	set("kernels.rows_per_exec", ratio(rows, execs))
}

// inprocLayers replays the workload against an in-process engine: a traced
// replay for the span metrics, then an untraced one for throughput, GC and
// allocations.
func (b *bench) inprocLayers(ctx context.Context, p *prepared, set func(string, float64)) error {
	eng, install, err := newInproc(p.w, p.corpus)
	if err != nil {
		return err
	}
	set("invindex.install_s", install.Seconds())
	rp := newReplay(p.ops)
	warm := newReplay(&opSet{clients: [numClients][]op{p.ops.warm}})
	if _, _, err := warm.run(eng, time.Hour, nil, 0); err != nil {
		return err
	}
	d := time.Duration(b.seconds) * time.Second / 2
	rec := newRecorder(replaySpans + parseQueries + 2*tailPairs)
	tracedN, tracedD, err := rp.run(eng, d, rec, replaySpans)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plainN, plainD, err := rp.run(eng, d, nil, 0)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	set("trace.overhead.inproc", (float64(tracedN)/tracedD.Seconds())/(float64(plainN)/plainD.Seconds()))
	set("runtime.gc_per_kop", float64(m1.NumGC-m0.NumGC)*1000/float64(plainN))

	qs := rp.nextQueries(parseQueries)
	if err := parseSpans(qs, rec); err != nil {
		return err
	}
	parseAllocs, _ := allocsPer(qs, func(q string) { _, _ = plan.Parse(q) })
	set("plan.parse_allocs", parseAllocs)
	allocs, bytes := allocsPer(qs[:min(500, len(qs))], func(q string) { _, _ = eng.eng.QueryContext(context.Background(), q) })
	set("engine.query_allocs", allocs)
	set("engine.query_bytes", bytes)

	// Hot and cold send their writes after the timed loop; replay them
	// after the queries too, so engine.add_us and engine.delete_us exist
	// on every workload.
	tail := newReplay(&opSet{clients: p.ops.tail})
	if len(tail.ops) > 0 {
		if _, _, err := tail.run(eng, time.Hour, rec, cap(rec.spans)); err != nil {
			return err
		}
	}

	self := selfTimes(rec.spans)
	st := collectSpans(rec.spans, self)
	mean := func(n spanName) float64 { return summarize(st.dur[n]).meanUS() }
	p99 := func(n spanName) float64 {
		v, err := summarize(st.dur[n]).us(99)
		if err != nil {
			fmt.Printf("  note: %s p99 reads 0: %v\n", n, err)
		}
		return v
	}
	set("admission.acquire_us", mean(spanAcquire))
	set("admission.acquire_p99_us", p99(spanAcquire))
	set("admission.coalesce_self_us", summarize(st.self[spanCoalesce]).meanUS())
	set("plan.parse_us", mean(spanParse))
	set("engine.canonicalize_us", mean(spanCanonicalize))
	set("engine.query_us", mean(spanQuery))
	set("engine.query_p99_us", p99(spanQuery))
	set("engine.add_us", mean(spanAdd))
	set("engine.delete_us", mean(spanDelete))

	dir := filepath.Join(b.buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.tsv", p.w.name, b.seed))
	if err := writeSpans(path, rec.spans, self); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("  spans: %d recorded (%d dropped) in %s\n", len(rec.spans), rec.dropped, path)
	return nil
}
