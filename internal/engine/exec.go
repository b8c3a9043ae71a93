package engine

import (
	"fmt"
	"time"

	"fastintersect"
	"fastintersect/internal/compress"
	"fastintersect/internal/invindex"
	"fastintersect/internal/plan"
	"fastintersect/internal/sets"
)

// Physical-plan execution against one segment of a shard's tier. The
// logical language, normalizer and cost model live in internal/plan; this
// file is the one interpreter that runs a plan.Plan over a leafSource — the
// raw base, the compressed base or an in-memory segment — inside a pooled
// execCtx.
//
// Kernel selection is delegated to the plan package everywhere: the plan
// fixes the operand order (built once per query from engine-aggregate
// statistics), and each shard re-prices the kernel on its actual operand
// sizes and encodings through the same cost model — plan.ChooseListKernel
// for preprocessed lists, plan.ChooseStored for compressed lists,
// plan.ChoosePair for the pairwise composite/segment merges. No execution
// path picks a kernel inline.

// listAlgorithm resolves the algorithm for a conjunction over f.lists: the
// configured override when set (and applicable), otherwise the cost model
// over the shard's actual list sizes.
// It also reports the chosen kernel and the span it was priced at, so a
// traced query can attribute the execution to the kernel that actually ran
// (KernelNone when a fixed Config.Algorithm bypasses the cost model).
func (e *Engine) listAlgorithm(c *execCtx, p *plan.Plan, lists []*fastintersect.List) (fastintersect.Algorithm, plan.Kernel, int) {
	a := e.cfg.Algorithm
	if mx := a.MaxSets(); mx > 0 && len(lists) > mx {
		a = fastintersect.Auto
	}
	if a != fastintersect.Auto {
		return a, plan.KernelNone, 0
	}
	c.lens = c.lens[:0]
	span := 0
	for _, l := range lists {
		c.lens = append(c.lens, l.Len())
		if sp := l.Span(); sp > 0 && (span == 0 || sp < span) {
			span = sp
		}
	}
	k := plan.ChooseListKernel(e.planCosts(), p.Policy.Kernels, c.lens, span)
	return fastintersect.KernelAlgorithm(k), k, span
}

// intersectPair intersects two sorted sets into a context buffer with the
// kernel the cost model picks for their sizes.
func (e *Engine) intersectPair(c *execCtx, pol plan.KernelPolicy, a, b []uint32) []uint32 {
	if plan.ChoosePair(e.planCosts(), pol, len(a), len(b)) == plan.KernelGallop {
		return sets.IntersectGallopInto(c.getBuf(), a, b)
	}
	return sets.IntersectInto(c.getBuf(), a, b)
}

// evalOp evaluates physical operator i of p against one segment, returning
// sorted docIDs. All transient memory comes from c; the returned slice
// either aliases source memory or the context's memo (owned = false;
// read-only) or is backed by a context buffer (owned = true; the caller
// recycles it with c.putBuf once consumed). Either way it is only valid
// until the context is released.
//
// When the query is traced (c.rec non-nil) each evaluation also records
// the operator's execution count, output rows and inclusive wall time;
// ExplainAnalyze derives exclusive times by subtracting children at render
// time. Untraced queries take the first branch — a nil check per operator.
//
// Each evaluation also polls the request context (pollCancel): operators
// are the engine's unit of work between kernel/decode runs, so a deadline
// that expires mid-shard aborts before the next kernel starts rather than
// after the whole shard finishes.
func (e *Engine) evalOp(c *execCtx, src leafSource, p *plan.Plan, i int32) ([]uint32, bool, error) {
	if err := c.pollCancel(); err != nil {
		return nil, false, err
	}
	if c.rec == nil {
		return e.evalOpInner(c, src, p, i)
	}
	start := time.Now()
	docs, owned, err := e.evalOpInner(c, src, p, i)
	a := &c.rec.ops[i]
	a.execs++
	a.rows += int64(len(docs))
	a.ns += time.Since(start).Nanoseconds()
	return docs, owned, err
}

func (e *Engine) evalOpInner(c *execCtx, src leafSource, p *plan.Plan, i int32) (docs []uint32, owned bool, err error) {
	op := &p.Ops[i]
	switch op.Kind {
	case plan.OpTerm:
		return src.term(c, op.Term), false, nil

	case plan.OpOr:
		f := c.frame()
		for _, ki := range p.KidOps(op) {
			s, kidOwned, err := e.evalOp(c, src, p, ki)
			if err != nil {
				c.releaseFrame(f)
				return nil, false, err
			}
			f.kids = append(f.kids, s)
			f.kidsOwned = append(f.kidsOwned, kidOwned)
		}
		out := sets.UnionKInto(c.getBuf(), f.kids...)
		c.releaseFrame(f)
		return out, true, nil

	case plan.OpAnd:
		return e.evalAndOp(c, src, p, i)
	}
	return nil, false, fmt.Errorf("engine: unknown plan op kind %d", op.Kind)
}

// recTerm records a term operand fetched inside a conjunction pushdown:
// the kernel consumes the list without materializing per-term output, so
// the recorded rows are the operand's input length and its time (one map
// lookup) is accounted to the parent (ns stays 0).
func recTerm(c *execCtx, ti int32, n int) {
	if c.rec == nil {
		return
	}
	a := &c.rec.ops[ti]
	a.execs++
	a.rows += int64(n)
}

// evalAndOp evaluates one conjunction operator under evalOp's ownership
// rules: the source intersects the term operands (the plan supplies their
// order, the source re-prices the kernel on its actual sizes), the
// composite kids fold in pairwise, and the negated kids are subtracted.
func (e *Engine) evalAndOp(c *execCtx, src leafSource, p *plan.Plan, i int32) ([]uint32, bool, error) {
	op := &p.Ops[i]
	var a conj
	if len(p.TermOps(op)) > 0 {
		docs, owned, err := src.and(e, c, p, i)
		if err != nil {
			return nil, false, err
		}
		// An empty term conjunction ends the operator: the composite kids
		// are never evaluated.
		if !a.and(e, c, p.Policy.Kernels, docs, owned) {
			return nil, false, nil
		}
	}
	for _, ki := range p.KidOps(op) {
		s, owned, err := e.evalOp(c, src, p, ki)
		if err != nil {
			a.release(c)
			return nil, false, err
		}
		if !a.and(e, c, p.Policy.Kernels, s, owned) {
			return nil, false, nil
		}
	}
	// a.docs is non-empty here: plan.Bounded guarantees at least one
	// positive operand, and empty positives short-circuited above.
	for _, ni := range p.NegOps(op) {
		s, owned, err := e.evalOp(c, src, p, ni)
		if err != nil {
			a.release(c)
			return nil, false, err
		}
		if len(s) > 0 {
			out := sets.DifferenceInto(c.getBuf(), a.docs, s)
			a.release(c)
			a.docs, a.owned = out, true
		}
		if owned {
			c.putBuf(s)
		}
		if len(a.docs) == 0 {
			break
		}
	}
	return a.docs, a.owned, nil
}

// conj is a conjunction's running result under evalOp's ownership rules;
// docs is nil until the first operand folds in, and never empty after.
type conj struct {
	docs  []uint32
	owned bool
}

// and folds operand s into the conjunction with intersectPair, consuming s
// (recycled when owned). It reports false — with everything released —
// once the conjunction is empty: nothing ANDed in later can resurrect it.
func (a *conj) and(e *Engine, c *execCtx, pol plan.KernelPolicy, s []uint32, owned bool) bool {
	if len(s) == 0 {
		if owned {
			c.putBuf(s)
		}
		a.release(c)
		return false
	}
	if a.docs == nil {
		a.docs, a.owned = s, owned
		return true
	}
	out := e.intersectPair(c, pol, a.docs, s)
	a.release(c)
	if owned {
		c.putBuf(s)
	}
	a.docs, a.owned = out, true
	if len(out) == 0 {
		a.release(c)
		return false
	}
	return true
}

// release recycles the running result if the conjunction owns it.
func (a *conj) release(c *execCtx) {
	if a.owned {
		c.putBuf(a.docs)
	}
	a.docs, a.owned = nil, false
}

// leafSource is everything the interpreter needs from one segment: a
// term's sorted docIDs, and the intersection of a conjunction's term
// operands in plan order — the leaf where the paper's k-way kernels run.
// Everything above the leaves (OR unions, composite kids, NOT differences,
// buffer ownership, cancellation polls, tracing) is evalOp's, shared by
// every source.
type leafSource interface {
	// term returns the sorted docIDs of term, or nil. The slice is
	// read-only: it aliases source memory or the context's decode memo.
	term(c *execCtx, term string) []uint32
	// and intersects the term operands of conjunction i (at least one)
	// under evalOp's ownership rules.
	and(e *Engine, c *execCtx, p *plan.Plan, i int32) ([]uint32, bool, error)
}

// baseSource returns the leaf source of a shard's base index; the storage
// mode is decided here once, not per operator.
func baseSource(ix *invindex.Index) leafSource {
	if ix.Storage() == invindex.StorageCompressed {
		return (*compressedBase)(ix)
	}
	return (*rawBase)(ix)
}

// rawBase runs conjunctions through the preprocessed-list kernels.
type rawBase invindex.Index

func (b *rawBase) term(_ *execCtx, term string) []uint32 { return (*invindex.Index)(b).TermDocs(term) }

func (b *rawBase) and(e *Engine, c *execCtx, p *plan.Plan, i int32) ([]uint32, bool, error) {
	f := c.frame()
	for _, ti := range p.TermOps(&p.Ops[i]) {
		// A wide conjunction fetches many operands inside one operator —
		// poll between them too.
		if err := c.pollCancel(); err != nil {
			c.releaseFrame(f)
			return nil, false, err
		}
		l := (*invindex.Index)(b).Postings(p.Ops[ti].Term)
		n := 0
		if l != nil {
			n = l.Len()
		}
		recTerm(c, ti, n)
		if n == 0 {
			c.releaseFrame(f)
			return nil, false, nil // empty operand: whole conjunction is empty
		}
		f.lists = append(f.lists, l)
	}
	if len(f.lists) == 1 {
		out := f.lists[0].Set()
		c.releaseFrame(f)
		return out, false, nil
	}
	a, k, span := e.listAlgorithm(c, p, f.lists)
	if c.rec != nil && k != plan.KernelNone {
		rec := &c.rec.ops[i]
		rec.kernel = k
		rec.estNs += plan.PriceListKernel(e.planCosts(), k, c.lens, span)
	}
	out, err := fastintersect.IntersectInto(&c.fi, c.getBuf(), a, f.lists...)
	c.releaseFrame(f)
	if err != nil {
		return nil, false, err
	}
	if !a.Sorted() {
		sets.SortU32(out)
	}
	return out, true, nil
}

// compressedBase runs conjunctions directly over the stored encodings;
// single terms decode once per context through the memo.
type compressedBase invindex.Index

func (b *compressedBase) term(c *execCtx, term string) []uint32 {
	if s := (*invindex.Index)(b).Stored(term); s != nil {
		return c.decodeStored(s)
	}
	return nil
}

func (b *compressedBase) and(e *Engine, c *execCtx, p *plan.Plan, i int32) ([]uint32, bool, error) {
	f := c.frame()
	for _, ti := range p.TermOps(&p.Ops[i]) {
		if err := c.pollCancel(); err != nil {
			c.releaseFrame(f)
			return nil, false, err
		}
		s := (*invindex.Index)(b).Stored(p.Ops[ti].Term)
		n := 0
		if s != nil {
			n = s.Len()
		}
		recTerm(c, ti, n)
		if n == 0 {
			c.releaseFrame(f)
			return nil, false, nil // empty operand: whole conjunction is empty
		}
		f.stored = append(f.stored, s)
	}
	if len(f.stored) == 1 {
		out := c.decodeStored(f.stored[0])
		c.releaseFrame(f)
		return out, false, nil
	}
	// The plan fixed the operand order; re-price the strategy on this
	// shard's actual lengths and encodings.
	c.ops = c.ops[:0]
	for _, s := range f.stored {
		c.ops = append(c.ops, plan.Operand{Len: s.Len(), Shape: s.Shape(), Span: s.Span()})
	}
	strat := plan.ChooseStored(e.planCosts(), p.Policy.Kernels, c.ops)
	if c.rec != nil {
		rec := &c.rec.ops[i]
		rec.kernel = strat
		rec.estNs += plan.PriceStored(e.planCosts(), strat, c.ops)
	}
	out := compress.IntersectStoredStrategy(c.getBuf(), strat, f.stored...)
	c.releaseFrame(f)
	return out, true, nil
}

// segSource is the leaf source of an in-memory segment, frozen or active.
// Segment lists are small by construction, so the preprocessed structures
// would not pay for themselves: conjunctions run the pairwise merge/gallop
// chain. For an active segment the lists are live — callers copy results
// that must outlive the shard lock.
type segSource[S interface{ Postings(string) []uint32 }] struct{ seg S }

func (s segSource[S]) term(_ *execCtx, term string) []uint32 { return s.seg.Postings(term) }

func (s segSource[S]) and(e *Engine, c *execCtx, p *plan.Plan, i int32) ([]uint32, bool, error) {
	var a conj
	for _, ti := range p.TermOps(&p.Ops[i]) {
		if err := c.pollCancel(); err != nil {
			a.release(c)
			return nil, false, err
		}
		if !a.and(e, c, p.Policy.Kernels, s.seg.Postings(p.Ops[ti].Term), false) {
			return nil, false, nil
		}
	}
	return a.docs, a.owned, nil
}
