// Package invindex is a small in-memory inverted index — the substrate the
// paper's motivating applications (enterprise/web search, conjunctive
// predicate evaluation) sit on. Documents are added as (docID, terms)
// pairs; Build freezes the index, preprocessing every posting list for
// conjunctive queries.
//
// The posting-list representation is pluggable (see Storage): StorageRaw
// wraps each list in the fastintersect public API so queries run any of the
// paper's algorithms; StorageCompressed stores each list under the encoding
// compress.ChooseEncoding picks from its length and density (raw, Elias
// γ/δ gap codes, or the paper's Lowbits grouping of Appendix B) and
// intersects directly over the compressed representations. MemStats
// reports the exact per-encoding payload footprint.
package invindex

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"fastintersect"
	"fastintersect/internal/compress"
	"fastintersect/internal/core"
	"fastintersect/internal/sets"
)

// Index maps terms to preprocessed posting lists.
type Index struct {
	opts    []fastintersect.Option
	storage Storage
	fam     *core.Family // shared family of compressed grouped structures
	pending map[string][]uint32
	built   map[string]*fastintersect.List // StorageRaw
	stored  map[string]*compress.Stored    // StorageCompressed
	frozen  bool
	docs    int
	docIDs  []uint32 // sorted distinct docIDs across all postings (set by Build)
}

// New creates an empty raw-storage index; opts are forwarded to
// fastintersect.Preprocess for every posting list.
func New(opts ...fastintersect.Option) *Index {
	return NewWithStorage(StorageRaw, opts...)
}

// NewWithStorage creates an empty index holding its built posting lists
// under the given storage mode. Compressed grouped structures share the
// hash family the option seed selects, so they remain intersectable with
// raw lists preprocessed under the same options.
func NewWithStorage(st Storage, opts ...fastintersect.Option) *Index {
	return &Index{
		opts:    opts,
		storage: st,
		pending: map[string][]uint32{},
	}
}

// Storage returns the index's posting-storage mode.
func (ix *Index) Storage() Storage { return ix.storage }

// Add records a document. Duplicate terms within a document are fine.
// Add must not be called after Build.
func (ix *Index) Add(docID uint32, terms []string) error {
	if ix.frozen {
		return errors.New("invindex: Add after Build")
	}
	seen := map[string]bool{}
	for _, t := range terms {
		if t == "" || seen[t] {
			continue
		}
		seen[t] = true
		ix.pending[t] = append(ix.pending[t], docID)
	}
	ix.docs++
	return nil
}

// AddPosting records a whole posting list for a term (builder-style input,
// used when the caller already has term → docIDs data).
func (ix *Index) AddPosting(term string, docIDs []uint32) error {
	if ix.frozen {
		return errors.New("invindex: AddPosting after Build")
	}
	ix.pending[term] = append(ix.pending[term], docIDs...)
	return nil
}

// Build freezes the index: posting lists are sorted, deduplicated and
// preprocessed into the configured storage representation. After Build the
// index is read-only and safe for concurrent queries.
func (ix *Index) Build() error {
	return ix.BuildParallel(1)
}

// BuildParallel is Build with posting-list preprocessing spread across
// workers goroutines (0 = GOMAXPROCS). This is the shard-friendly build
// path: a sharded engine builds many independent indexes concurrently, and
// each can additionally parallelize over its own terms.
func (ix *Index) BuildParallel(workers int) error {
	if ix.frozen {
		return errors.New("invindex: Build called twice")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if ix.storage == StorageCompressed {
		ix.fam = core.NewFamily(fastintersect.OptionsSeed(ix.opts...), compress.StoredHashImages)
	}
	terms := make([]string, 0, len(ix.pending))
	for t := range ix.pending {
		terms = append(terms, t)
	}
	built := make(map[string]*fastintersect.List)
	stored := make(map[string]*compress.Stored)
	rawSets := make([][]uint32, 0, len(terms)) // per-term sorted sets, for the docID union
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		sem      = make(chan struct{}, workers)
	)
	for _, term := range terms {
		wg.Add(1)
		sem <- struct{}{}
		go func(term string) {
			defer wg.Done()
			defer func() { <-sem }()
			set := sets.SortDedup(ix.pending[term])
			var (
				l   *fastintersect.List
				s   *compress.Stored
				err error
			)
			if ix.storage == StorageCompressed {
				s, err = compress.NewStoredAdaptive(ix.fam, set)
			} else {
				l, err = fastintersect.Preprocess(set, ix.opts...)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("invindex: term %q: %w", term, err)
				}
				return
			}
			rawSets = append(rawSets, set)
			if s != nil {
				stored[term] = s
			} else {
				built[term] = l
			}
		}(term)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// Distinct documents = the union of every posting list, computed here
	// while the sorted raw sets are still in hand (under compressed storage
	// they are garbage once encoded). This is what makes doc counts exact
	// regardless of how documents arrived (Add, duplicate Add, AddPosting).
	ix.docIDs = sets.UnionKInto(make([]uint32, 0, 64), rawSets...)
	if ix.storage == StorageCompressed {
		ix.stored = stored
	} else {
		ix.built = built
	}
	ix.frozen = true
	ix.pending = nil
	return nil
}

// Terms returns the indexed terms, sorted.
func (ix *Index) Terms() []string {
	var out []string
	switch {
	case !ix.frozen:
		for t := range ix.pending {
			out = append(out, t)
		}
	case ix.storage == StorageCompressed:
		for t := range ix.stored {
			out = append(out, t)
		}
	default:
		for t := range ix.built {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// Postings returns the preprocessed posting list of a term, or nil if the
// term is unknown, the index is not built, or the index uses compressed
// storage (see Stored).
func (ix *Index) Postings(term string) *fastintersect.List {
	if ix.built == nil {
		return nil
	}
	return ix.built[term]
}

// Stored returns the compressed representation of a term's posting list,
// or nil if the term is unknown, the index is not built, or the index uses
// raw storage (see Postings).
func (ix *Index) Stored(term string) *compress.Stored {
	if ix.stored == nil {
		return nil
	}
	return ix.stored[term]
}

// TermDocs returns the sorted docIDs of a term under either storage, or
// nil if the term is unknown or the index is not built. Read-only: under
// raw storage (and for EncRaw lists) it aliases index memory; otherwise it
// is a fresh decode.
func (ix *Index) TermDocs(term string) []uint32 {
	if s := ix.Stored(term); s != nil {
		return s.Decode()
	}
	if l := ix.Postings(term); l != nil {
		return l.Set()
	}
	return nil
}

// Docs returns the number of distinct indexed documents. After Build it is
// exact — the size of the union of every posting list — no matter how
// documents arrived (Add, duplicate Add, or term-major AddPosting). Before
// Build it counts Add calls, so duplicate adds and AddPosting input are not
// reflected until the index is built.
func (ix *Index) Docs() int {
	if ix.frozen {
		return len(ix.docIDs)
	}
	return ix.docs
}

// DocIDs returns the sorted distinct docIDs appearing in any posting list,
// or nil before Build. The slice is owned by the index; callers must not
// modify it. It is the membership structure the engine's mutable tier uses
// to account for deletions against the frozen base segment.
func (ix *Index) DocIDs() []uint32 { return ix.docIDs }

// TermCount returns the number of distinct indexed terms.
func (ix *Index) TermCount() int {
	switch {
	case !ix.frozen:
		return len(ix.pending)
	case ix.storage == StorageCompressed:
		return len(ix.stored)
	default:
		return len(ix.built)
	}
}

// Encoding returns the compressed encoding a term's posting list is stored
// under. ok is false for unknown terms, for unbuilt indexes, and under raw
// storage — the planner's metadata accessor, alongside DocFreq.
func (ix *Index) Encoding(term string) (enc compress.Encoding, ok bool) {
	s := ix.Stored(term)
	if s == nil {
		return 0, false
	}
	return s.Encoding(), true
}

// DocFreq returns the document frequency of a term (0 if unknown).
func (ix *Index) DocFreq(term string) int {
	if l := ix.Postings(term); l != nil {
		return l.Len()
	}
	if s := ix.Stored(term); s != nil {
		return s.Len()
	}
	return 0
}

// ErrUnknownTerm is returned by Query for terms with no postings.
var ErrUnknownTerm = errors.New("invindex: unknown term")

// Query returns the sorted documents containing every term, using the Auto
// algorithm (raw storage) or the compressed kernels (compressed storage).
func (ix *Index) Query(terms ...string) ([]uint32, error) {
	return ix.QueryWith(fastintersect.Auto, terms...)
}

// QueryWith runs a conjunctive query with a specific algorithm. Results
// are sorted ascending. Under compressed storage the intersection runs
// directly over the stored representations (γ/δ buckets decoded on the
// fly, Lowbits groups filtered and concatenated) and algo is ignored.
func (ix *Index) QueryWith(algo fastintersect.Algorithm, terms ...string) ([]uint32, error) {
	if !ix.frozen {
		return nil, errors.New("invindex: Query before Build")
	}
	if len(terms) == 0 {
		return nil, errors.New("invindex: empty query")
	}
	if ix.storage == StorageCompressed {
		ss := make([]*compress.Stored, len(terms))
		for i, t := range terms {
			s := ix.stored[t]
			if s == nil {
				return nil, fmt.Errorf("%w: %q", ErrUnknownTerm, t)
			}
			ss[i] = s
		}
		return compress.IntersectStored(ss...), nil
	}
	lists := make([]*fastintersect.List, len(terms))
	for i, t := range terms {
		l := ix.built[t]
		if l == nil {
			return nil, fmt.Errorf("%w: %q", ErrUnknownTerm, t)
		}
		lists[i] = l
	}
	out, err := fastintersect.IntersectWith(algo, lists...)
	if err != nil {
		return nil, err
	}
	sets.SortU32(out)
	return out, nil
}
