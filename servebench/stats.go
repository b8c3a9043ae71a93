package main

import (
	"bufio"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: fewer, and the value is one or two outliers.
const minBeyond = 10

// nearestRank returns the p-th percentile (0 < p ≤ 100) of sorted by the
// nearest-rank method: the smallest sample with at least p% of the samples
// at or below it.
func nearestRank(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), p)-1]
}

// rankOf is the 1-based nearest rank ⌈p/100 · n⌉, clamped to [1, n].
func rankOf(n int, p float64) int {
	// The epsilon keeps p/100·n from rounding up past an exact rank.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return max(1, min(r, n))
}

// supported reports whether n samples leave at least minBeyond samples
// above the p-th percentile.
func supported(n int, p float64) bool {
	return n > 0 && n-rankOf(n, p) >= minBeyond
}

// latencySummary holds a sorted sample of durations in nanoseconds.
type latencySummary struct{ sorted []int64 }

func summarize(ns []int64) latencySummary {
	s := slices.Clone(ns)
	slices.Sort(s)
	return latencySummary{s}
}

func (l latencySummary) n() int { return len(l.sorted) }

// us returns the p-th percentile in microseconds, or an error when the
// sample is too small to support it.
func (l latencySummary) us(p float64) (float64, error) {
	if !supported(len(l.sorted), p) {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples", p, minBeyond, len(l.sorted))
	}
	return float64(nearestRank(l.sorted, p)) / 1e3, nil
}

func (l latencySummary) meanUS() float64 {
	if len(l.sorted) == 0 {
		return 0
	}
	var sum int64
	for _, v := range l.sorted {
		sum += v
	}
	return float64(sum) / float64(len(l.sorted)) / 1e3
}

// promSample is one scraped /metrics page: series name (labels included,
// exactly as rendered) → value.
type promSample map[string]float64

// parseProm parses the Prometheus text exposition format. Comment lines
// are skipped; every other line is "<series> <value>".
func parseProm(text string) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// delta is after[name] − before[name]; absent series read as 0.
func delta(before, after promSample, name string) float64 {
	return after[name] - before[name]
}

// histMean is the mean of histogram family fam (with its label set, e.g.
// `{path="/query"}`, or "") over the scrape interval, from the exact
// _sum/_count series. Zero observations give 0.
func histMean(before, after promSample, fam, labels string) (mean, count float64) {
	count = delta(before, after, fam+"_count"+labels)
	if count == 0 {
		return 0, 0
	}
	return delta(before, after, fam+"_sum"+labels) / count, count
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
