package harness

import (
	"strings"
	"testing"
	"time"
)

// tinyConfig runs experiments at the small scale with single repetitions;
// the full experiment bodies are exercised by TestRegistrySmokes below on a
// few fast entries, and end-to-end by cmd/fsibench.
func tinyConfig() Config {
	return Config{Scale: "small", Seed: 42, Reps: 1}
}

func TestRegistryComplete(t *testing.T) {
	// Every figure/table of the paper's evaluation must have an entry.
	want := []string{
		"fig4", "fig5", "fig6", "ratio", "sizes", "fig7", "fig8",
		"real-compressed", "fig9", "fig10", "fig11", "fig12", "intro-stats",
		"ablation-width", "ablation-m", "ablation-parallel", "storage-sweep",
		"overload",
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Fatalf("experiment %q missing from registry", id)
		}
	}
	if len(IDs()) < len(want) {
		t.Fatalf("registry has %d entries, want ≥ %d", len(IDs()), len(want))
	}
}

func TestGetUnknown(t *testing.T) {
	if _, ok := Get("nope"); ok {
		t.Fatal("unknown experiment found")
	}
}

func TestTablePrint(t *testing.T) {
	tb := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "bee"},
		Notes:   []string{"a note"},
	}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	var sb strings.Builder
	tb.Print(&sb)
	out := sb.String()
	for _, want := range []string{"== x: demo ==", "a    bee", "333  4", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestTimeIt(t *testing.T) {
	calls := 0
	d := timeIt(3, func() { calls++; time.Sleep(time.Millisecond) })
	if calls != 3 {
		t.Fatalf("f called %d times", calls)
	}
	if d < 500*time.Microsecond {
		t.Fatalf("implausible minimum %v", d)
	}
	if timeIt(0, func() {}) < 0 {
		t.Fatal("negative duration")
	}
}

func TestFormatters(t *testing.T) {
	if got := ms(1500 * time.Microsecond); got != "1.500" {
		t.Fatalf("ms = %q", got)
	}
	if got := ratio(2*time.Second, time.Second); got != "2.00" {
		t.Fatalf("ratio = %q", got)
	}
	if got := ratio(time.Second, 0); got != "inf" {
		t.Fatalf("ratio/0 = %q", got)
	}
}

func TestSortedKeys(t *testing.T) {
	got := sortedKeys(map[int]string{3: "c", 1: "a", 2: "b"})
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("sortedKeys = %v", got)
	}
}

// TestCompressBenchSweep pins the storage sweep's guarantees: every
// encoding's intersection is byte-identical to the reference, and the
// adaptive heuristic selects each of Raw, Gamma, Delta, Lowbits and
// Bitseg for at least one density regime.
func TestCompressBenchSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is not -short friendly")
	}
	rep := CompressBench(tinyConfig())
	if rep.Schema != "fsibench/compress/v1" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	chosen := map[string]bool{}
	for _, w := range rep.Workloads {
		if len(w.Encodings) != 5 {
			t.Fatalf("%s: %d encodings measured", w.Name, len(w.Encodings))
		}
		chosen[w.Chosen] = true
		for _, m := range w.Encodings {
			if !m.ResultOK {
				t.Fatalf("%s/%s: intersection diverged from reference", w.Name, m.Encoding)
			}
			if m.BytesPerPosting <= 0 {
				t.Fatalf("%s/%s: bytes/posting = %v", w.Name, m.Encoding, m.BytesPerPosting)
			}
			if m.Chosen != (m.Encoding == w.Chosen) {
				t.Fatalf("%s/%s: chosen flag inconsistent with %q", w.Name, m.Encoding, w.Chosen)
			}
		}
	}
	for _, enc := range []string{"Raw", "Gamma", "Delta", "Lowbits", "Bitseg"} {
		if !chosen[enc] {
			t.Fatalf("no workload selects %s (chosen set: %v)", enc, chosen)
		}
	}
}

// TestExperimentSmokes runs the cheapest experiments end to end so the
// harness plumbing (workload generation, preprocessing, timing, table
// building) is covered by `go test`.
func TestExperimentSmokes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not -short friendly")
	}
	cfg := tinyConfig()
	for _, id := range []string{"sizes", "ablation-width", "ablation-m"} {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		tables := e.Run(cfg)
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", id)
		}
		for _, tb := range tables {
			if len(tb.Rows) == 0 {
				t.Fatalf("%s: table %s has no rows", id, tb.ID)
			}
			var sb strings.Builder
			tb.Print(&sb)
			if !strings.Contains(sb.String(), tb.ID) {
				t.Fatalf("%s: print missing ID", id)
			}
		}
	}
}

// TestSegmentsBench is the acceptance check for the tiered segment
// lifecycle: replaying the same churn stream, the tiered policy must pay
// strictly less write amplification than rebuild-on-every-threshold while
// answering every query identically — and it must actually exercise the
// tier (freezes, and strictly fewer bytes, not merely fewer compactions).
func TestSegmentsBench(t *testing.T) {
	if testing.Short() {
		t.Skip("replays churn streams through four engines")
	}
	rep := SegmentsBench(tinyConfig())
	if rep.Schema != "fsibench/segments/v1" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if len(rep.Scenarios) != 4 {
		t.Fatalf("got %d scenarios, want 4 (2 storages × 2 policies)", len(rep.Scenarios))
	}
	byKey := map[string]SegmentsScenario{}
	for _, s := range rep.Scenarios {
		byKey[s.Storage+"/"+s.Policy] = s
		if s.Adds == 0 || s.Deletes == 0 || s.Queries == 0 {
			t.Fatalf("%s: degenerate replay %+v", s.Name, s)
		}
		if s.IngestedBytes == 0 {
			t.Fatalf("%s: no ingested bytes accounted", s.Name)
		}
	}
	for _, storage := range []string{"raw", "compressed"} {
		tiered, ok := byKey[storage+"/tiered"]
		if !ok {
			t.Fatalf("missing tiered scenario for %s", storage)
		}
		rebuild, ok := byKey[storage+"/rebuild"]
		if !ok {
			t.Fatalf("missing rebuild scenario for %s", storage)
		}
		if tiered.Freezes == 0 {
			t.Errorf("%s: tiered policy never froze a segment", storage)
		}
		if rebuild.Compactions == 0 {
			t.Errorf("%s: rebuild policy never compacted; the comparison is vacuous", storage)
		}
		if tiered.WriteAmp >= rebuild.WriteAmp {
			t.Errorf("%s: tiered write amplification %.2f is not strictly below rebuild's %.2f",
				storage, tiered.WriteAmp, rebuild.WriteAmp)
		}
	}
	if len(rep.Parity) != 2 {
		t.Fatalf("got %d parity entries, want 2", len(rep.Parity))
	}
	for _, p := range rep.Parity {
		if p.Queries == 0 {
			t.Fatalf("%s: parity checked no queries", p.Storage)
		}
		if !p.OK {
			t.Errorf("%s: tiered and rebuild engines disagree on query results", p.Storage)
		}
	}
}

// TestFeedbackBench is the acceptance check for the adaptive planning loop:
// under a drifted corpus the feedback engine's corrected plans must beat the
// frozen mis-calibrated engine, must stop running the under-priced merge
// kernel the frozen engine keeps dispatching, and must not have cost
// anything meaningful before the drift (when the mispriced plans happened
// to be right anyway).
func TestFeedbackBench(t *testing.T) {
	if testing.Short() {
		t.Skip("runs adaptation streams and timed benchmarks through five engine phases")
	}
	rep := FeedbackBench(tinyConfig())
	if rep.Schema != "fsibench/feedback/v1" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if len(rep.Scenarios) != 5 {
		t.Fatalf("got %d scenarios, want 5 (frozen/feedback ×2 phases + oracle)", len(rep.Scenarios))
	}
	byKey := map[string]FeedbackScenario{}
	for _, s := range rep.Scenarios {
		byKey[s.Phase+"/"+s.Engine] = s
		if s.NsPerOp <= 0 || s.QPS <= 0 {
			t.Fatalf("%s/%s: degenerate timing (ns/op=%d)", s.Phase, s.Engine, s.NsPerOp)
		}
	}
	fb := byKey["post-drift/feedback"]
	if fb.Refits == 0 || fb.Observations == 0 {
		t.Fatalf("feedback engine never refit (refits=%d, obs=%d); the loop never engaged", fb.Refits, fb.Observations)
	}
	if fb.MergeCorrection <= 1.5 {
		t.Errorf("merge correction %.2f; want it learned well above 1 (the anchor was under-priced %v×)",
			fb.MergeCorrection, rep.Distortion)
	}
	frozen := byKey["post-drift/frozen"]
	if frozen.MergeExecShare < 0.5 {
		t.Errorf("frozen engine ran merges on only %.0f%% of sampled kernel executions post-drift; the mis-calibration scenario is vacuous",
			100*frozen.MergeExecShare)
	}
	if fb.MergeExecShare >= 0.5 {
		t.Errorf("feedback engine still ran merges on %.0f%% of sampled kernel executions post-drift (frozen: %.0f%%); corrections did not flip the plans",
			100*fb.MergeExecShare, 100*frozen.MergeExecShare)
	}
	if rep.PostDriftRatio >= 1.0 {
		t.Errorf("post-drift feedback/frozen ratio %.3f; corrected plans must beat the frozen mis-calibration", rep.PostDriftRatio)
	}
	// 1.05 is the design budget; CI boxes are noisy, so the hard gate allows
	// a little slack on top while still catching a loop that costs real time.
	if rep.PreDriftRatio > 1.10 {
		t.Errorf("pre-drift feedback/frozen ratio %.3f; the loop must be ~free when plans are already right", rep.PreDriftRatio)
	}
}
