package prover

import (
	"context"
	"fmt"
	"sync/atomic"

	"odlib/internal/core"
	"odlib/internal/fd"
)

// DefaultMaxAttrs bounds the number of distinct attributes a single
// implication question may mention. 3^14 patterns check in well under a
// second; raise the bound explicitly via WithMaxAttrs if needed. Since the
// working set widens lazily, the bound is measured against the attributes a
// question actually needs, not against every constraint that shares an
// attribute with it.
const DefaultMaxAttrs = 14

// Verdict is a decided implication answer M ⊨ X ↦ Y: either implied, or
// refuted with a two-row counterexample pattern. Verdicts are what the
// prover memoizes; callers must treat the witness as read-only, since the
// same Verdict may be served to many callers from a shared cache.
//
// Cost records how expensive the verdict was to compute — search nodes
// explored divided by the number of entangled attributes, floored at 1 — so
// bounded caches can evict cheap verdicts first: re-deriving a 4-attribute
// answer is noise, re-running a near-limit refutation is not.
type Verdict struct {
	Implied bool
	Witness *core.Pattern
	Cost    uint64
}

// VerdictCache memoizes implication verdicts, keyed by core.OD.Key(). The
// prover consults Get before deciding and calls Put after. Implementations
// may drop entries at any time (bounded caches) and may be shared between
// provers over the same OD set — internal/catalog supplies a concurrency-safe,
// generation-stamped one so that repeated questions against an unchanged
// catalog skip the exponential pattern search entirely.
type VerdictCache interface {
	Get(key string) (Verdict, bool)
	Put(key string, v Verdict)
}

// mapCache is the default verdict cache: a plain map, unbounded and not safe
// for concurrent use.
type mapCache map[string]Verdict

func (c mapCache) Get(key string) (Verdict, bool) { v, ok := c[key]; return v, ok }
func (c mapCache) Put(key string, v Verdict)      { c[key] = v }

// Counters aggregates search effort across decides. A single Counters value
// can be shared by many provers (internal/catalog threads one through every
// per-generation prover it builds), so observers see cumulative work survive
// catalog mutations. All fields are atomic; the zero value is ready to use.
type Counters struct {
	// Nodes counts sign-enumeration tree nodes visited plus widening
	// validations — the unit the cancellation tests watch to assert an
	// aborted search stopped burning work.
	Nodes atomic.Uint64
	// Searches counts decide calls that reached the search machinery
	// (i.e. were not answered by a cache in front of the prover).
	Searches atomic.Uint64
	// Cancelled counts decides aborted by context cancellation or deadline.
	Cancelled atomic.Uint64
	// Widenings counts working-set widening rounds across all decides.
	Widenings atomic.Uint64
}

// CounterStats is a plain point-in-time copy of Counters, JSON-ready.
type CounterStats struct {
	Nodes     uint64 `json:"nodes"`
	Searches  uint64 `json:"searches"`
	Cancelled uint64 `json:"cancelled"`
	Widenings uint64 `json:"widenings"`
}

// Snapshot returns the current counter values.
func (c *Counters) Snapshot() CounterStats {
	return CounterStats{
		Nodes:     c.Nodes.Load(),
		Searches:  c.Searches.Load(),
		Cancelled: c.Cancelled.Load(),
		Widenings: c.Widenings.Load(),
	}
}

// Prover answers implication questions against a fixed OD set M.
//
// Deciding is a pure function of the (immutable) OD set; the only mutable
// state is the verdict cache. A Prover is therefore safe for concurrent use
// exactly when its verdict cache is: the default map cache is not, a cache
// injected via WithCache may be.
type Prover struct {
	ods      []core.OD
	fds      []fd.FD
	universe core.List
	maxAttrs int
	workers  int
	pool     *Pool
	cache    VerdictCache
	counters *Counters
}

// Option configures a Prover.
type Option func(*Prover)

// WithMaxAttrs overrides the attribute-count guard.
func WithMaxAttrs(n int) Option {
	return func(p *Prover) { p.maxAttrs = n }
}

// WithCache replaces the default in-memory verdict cache. Passing a
// concurrency-safe cache makes the Prover safe for concurrent use.
func WithCache(c VerdictCache) Option {
	return func(p *Prover) {
		if c != nil {
			p.cache = c
		}
	}
}

// WithWorkers sets the goroutine count for the parallel pattern search.
// n <= 1 keeps the search sequential (the default); larger n splits the
// sign-enumeration tree into contiguous prefix blocks, one goroutine per
// block, cancelling the whole pool on the first counterexample. Small
// questions run sequentially regardless — forking goroutines for a few
// thousand nodes costs more than it saves.
func WithWorkers(n int) Option {
	return func(p *Prover) {
		if n > maxWorkers {
			n = maxWorkers
		}
		if n < 1 {
			n = 1
		}
		p.workers = n
	}
}

// WithCounters installs a shared effort-counter sink. Passing nil keeps
// counting disabled.
func WithCounters(c *Counters) Option {
	return func(p *Prover) { p.counters = c }
}

// WithPool bounds the parallel search with a shared worker pool: instead of
// unconditionally spawning workers-1 goroutines per search, each search
// grabs as many non-blocking slots as the pool has free (possibly zero) and
// runs one block inline on the caller. Many provers — every shard, every
// catalog generation — share one Pool, so concurrent heavy proves split the
// machine instead of multiplying across it. Nil keeps the unpooled
// behavior.
func WithPool(pool *Pool) Option {
	return func(p *Prover) { p.pool = pool }
}

// New creates a prover for the OD set M.
func New(m []core.OD, opts ...Option) *Prover {
	ods := make([]core.OD, len(m))
	copy(ods, m)
	p := &Prover{
		ods:      ods,
		fds:      fd.FromODs(ods),
		universe: core.AttrsOf(ods).Sorted(),
		maxAttrs: DefaultMaxAttrs,
		workers:  1,
		cache:    make(mapCache),
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// ODs returns the prescribed OD set M.
func (p *Prover) ODs() []core.OD { return p.ods }

// Universe returns the attributes mentioned by M, sorted.
func (p *Prover) Universe() core.List { return p.universe }

// Workers returns the configured search parallelism.
func (p *Prover) Workers() int { return p.workers }

// Implies reports whether M ⊨ od.
func (p *Prover) Implies(od core.OD) (bool, error) {
	return p.ImpliesCtx(context.Background(), od)
}

// ImpliesCtx is Implies honoring cancellation: when ctx is cancelled the
// search aborts and the context's error is returned.
func (p *Prover) ImpliesCtx(ctx context.Context, od core.OD) (bool, error) {
	ok, _, err := p.ImpliesWitnessCtx(ctx, od)
	return ok, err
}

// ImpliesWitness reports whether M ⊨ od; when it does not, it also returns a
// two-row counterexample pattern that satisfies M and falsifies od.
func (p *Prover) ImpliesWitness(od core.OD) (bool, *core.Pattern, error) {
	return p.ImpliesWitnessCtx(context.Background(), od)
}

// ImpliesWitnessCtx is ImpliesWitness honoring cancellation. Cache hits
// answer without consulting the context; cancelled searches are never cached.
func (p *Prover) ImpliesWitnessCtx(ctx context.Context, od core.OD) (bool, *core.Pattern, error) {
	key := od.Key()
	if v, ok := p.cache.Get(key); ok {
		return v.Implied, v.Witness, nil
	}
	v, err := p.decide(ctx, od)
	if err != nil {
		return false, nil, err
	}
	p.cache.Put(key, v)
	return v.Implied, v.Witness, nil
}

// DecideCtx answers M ⊨ od without consulting or filling the verdict cache;
// the caller owns memoization. internal/catalog uses it so its tier chain —
// closure membership, negative closure, memo — accounts each layer exactly
// once and stores the verdict itself.
func (p *Prover) DecideCtx(ctx context.Context, od core.OD) (Verdict, error) {
	return p.decide(ctx, od)
}

// decide answers M ⊨ od by lazily widened restriction: it reasons over a
// working subset W ⊆ M — initially empty, so the first search universe is
// exactly the question's own attributes — and grows W only when forced. The
// loop invariant that makes this exact rests on how patterns extend: an
// attribute outside a pattern's universe reads as Equal, and an OD none of
// whose attributes carry a non-Equal sign is satisfied. So:
//
//   - "no counterexample against W" is conclusive: W ⊨ od implies M ⊨ od,
//     since M ⊇ W only adds premises;
//   - a candidate counterexample against W is validated against all of M
//     (with the Equal extension) before being believed; if some OD of
//     M \ W rejects it, that OD joins W and the search repeats.
//
// Each round either returns or strictly grows W, so the loop terminates
// within |M| rounds; W converges to the ODs the question actually entangles,
// which keeps both the 3^n search and the attribute-count guard proportional
// to the answer rather than to the whole prescribed set. Eager seeding (every
// OD sharing an attribute with the question) was the previous policy; it
// dragged entire constraint cascades — hub attributes touching dozens of
// ODs — into the universe and tripped the guard on questions whose answer
// needed two attributes.
//
// The returned Verdict's Cost counts the work done — search nodes plus
// candidate validations — per entangled attribute, for cache eviction policy.
func (p *Prover) decide(ctx context.Context, od core.OD) (Verdict, error) {
	if p.counters != nil {
		p.counters.Searches.Add(1)
	}
	// explored counts search-tree nodes and widen validations; the final
	// verdict records it normalized by the attribute count, and the shared
	// counters receive it on every exit path.
	var explored uint64
	defer func() {
		if p.counters != nil {
			p.counters.Nodes.Add(explored)
		}
	}()
	verdict := func(implied bool, w *core.Pattern, attrs int) Verdict {
		cost := explored / uint64(max(1, attrs))
		return Verdict{Implied: implied, Witness: w, Cost: max(cost, 1)}
	}

	working := make([]core.OD, 0, 4)
	inWorking := make([]bool, len(p.ods))

	// The split-half test (Theorem 15) is loop-invariant: the FD closure
	// depends only on the question and M's FDs, not on the working set.
	closure := fd.Closure(od.LHS.Set(), p.fds)
	splitRefuted := !od.RHS.Set().SubsetOf(closure)

	for {
		if err := ctx.Err(); err != nil {
			if p.counters != nil {
				p.counters.Cancelled.Add(1)
			}
			return Verdict{}, err
		}
		attrs := core.AttrsOf(working).Union(od.Attrs()).Sorted()
		if len(attrs) > p.maxAttrs {
			return Verdict{}, fmt.Errorf(
				"prover: question needs %d entangled attributes, exceeding the limit of %d (raise with WithMaxAttrs)",
				len(attrs), p.maxAttrs)
		}

		// widen moves the first OD of M rejecting the candidate into the
		// working set. Such an OD cannot already be in the working set: the
		// candidate was constructed to satisfy every working OD.
		widen := func(w *core.Pattern) bool {
			for i, m := range p.ods {
				explored++
				if !inWorking[i] && !w.HoldsOD(m) {
					inWorking[i] = true
					working = append(working, m)
					if p.counters != nil {
						p.counters.Widenings.Add(1)
					}
					return true
				}
			}
			return false
		}

		// Split half: when the FD set(X) → set(Y) is not implied, the
		// Ullman two-row table over the closure of set(X) — Less on every
		// universe attribute outside the closure — is a candidate
		// counterexample that needs no search. The closure ran over all of
		// M's FDs, so no working OD can reject the table; one entirely
		// outside the universe may, and triggers widening.
		if splitRefuted {
			w := core.MustPattern(attrs)
			for _, a := range attrs {
				if !closure.Contains(a) {
					if err := w.SetSign(a, core.Less); err != nil {
						return Verdict{}, err
					}
				}
			}
			if widen(w) {
				continue
			}
			return verdict(false, p.expandWitness(w, od), len(attrs)), nil
		}

		// Swap half: exhaustive two-row pattern search against the working
		// set — parallel across prefix-sharded subtrees when configured.
		pat := core.MustPattern(attrs)
		cods := make([]Compiled, 0, len(working)+1)
		for _, m := range working {
			cods = append(cods, compileOD(m, pat))
		}
		target := compileOD(od, pat)
		found, nodes, err := p.runSearch(ctx, pat, cods, target)
		explored += nodes
		if err != nil {
			if p.counters != nil {
				p.counters.Cancelled.Add(1)
			}
			return Verdict{}, err
		}
		if found == nil {
			return verdict(true, nil, len(attrs)), nil
		}
		if widen(found) {
			continue
		}
		return verdict(false, p.expandWitness(found, od), len(attrs)), nil
	}
}

// expandWitness lifts a validated counterexample onto the full universe of
// M and the question, filling the attributes the restricted search never
// assigned with Equal — the extension under which the candidate was
// validated. Callers that realize the witness as a relation (odprove, the
// /prove endpoint) then get every mentioned attribute as a column.
func (p *Prover) expandWitness(w *core.Pattern, od core.OD) *core.Pattern {
	attrs := core.AttrsOf(p.ods).Union(od.Attrs()).Sorted()
	out := core.MustPattern(attrs)
	for _, a := range attrs {
		if s := w.Sign(a); s != core.Equal {
			// Attributes can never vanish between the restricted and the
			// full universe, so SetSign cannot fail.
			if err := out.SetSign(a, s); err != nil {
				panic(err)
			}
		}
	}
	return out
}

// ImpliesAll reports whether M implies every OD of the slice.
func (p *Prover) ImpliesAll(ods []core.OD) (bool, error) {
	return p.ImpliesAllCtx(context.Background(), ods)
}

// ImpliesAllCtx is ImpliesAll honoring cancellation.
func (p *Prover) ImpliesAllCtx(ctx context.Context, ods []core.OD) (bool, error) {
	for _, od := range ods {
		ok, err := p.ImpliesCtx(ctx, od)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// Equivalent reports whether M ⊨ X ↔ Y.
func (p *Prover) Equivalent(x, y core.List) (bool, error) {
	return p.ImpliesAll(core.Equivalence(x, y))
}

// OrderCompatible reports whether M ⊨ X ~ Y (Definition 5).
func (p *Prover) OrderCompatible(x, y core.List) (bool, error) {
	return p.ImpliesAll(core.OrderCompat(x, y))
}

// IsConstant reports whether M forces attribute a to a single value
// (Definition 18): M ⊨ [] ↦ [a].
func (p *Prover) IsConstant(a core.Attribute) (bool, error) {
	return p.Implies(core.ConstantOD(a))
}

// Constants returns the attributes of M's universe that are constants.
func (p *Prover) Constants() (core.List, error) {
	var out core.List
	for _, a := range p.universe {
		ok, err := p.IsConstant(a)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, a)
		}
	}
	return out, nil
}

// EquivalentSets reports whether M and other have the same closure
// (Definition 9), by mutual implication of the generators.
func (p *Prover) EquivalentSets(other []core.OD) (bool, error) {
	if ok, err := p.ImpliesAll(other); err != nil || !ok {
		return false, err
	}
	q := New(other, WithMaxAttrs(p.maxAttrs))
	return q.ImpliesAll(p.ods)
}

// Term is one compiled list element: an index into the search's sign array
// and the direction the attribute is compared in. A plain OD compiles every
// term to Greater (ascending); internal/polar compiles descending attributes
// to Less, which negates the attribute's sign.
type Term struct {
	Idx int32
	Dir core.Sign
}

// Compiled holds an OD with both sides resolved to Terms, so the inner
// search loop runs on plain slices.
type Compiled struct {
	LHS, RHS []Term
}

func compileOD(od core.OD, pat *core.Pattern) Compiled {
	terms := func(l core.List) []Term {
		out := make([]Term, 0, len(l))
		for _, a := range l {
			out = append(out, Term{Idx: int32(pat.Universe().Index(a)), Dir: core.Greater})
		}
		return out
	}
	return Compiled{LHS: terms(od.LHS), RHS: terms(od.RHS)}
}

// cmpSigns compares the pattern's two rows along a compiled list: the first
// non-Equal sign, read in its term's direction. Indexing l[i], rather than
// ranging over copies, keeps the Dir load out of the loop.
func cmpSigns(signs []core.Sign, l []Term) core.Sign {
	for i := range l {
		if s := signs[l[i].Idx]; s != core.Equal {
			return s * l[i].Dir
		}
	}
	return core.Equal
}

// holds reports whether the pattern satisfies the OD: the right side ties,
// or it orders the rows the way the left side does (a tie on the left then
// makes any non-Equal right side a split). Keep it this small: the search
// leaf relies on holds being inlined.
func (c Compiled) holds(signs []core.Sign) bool {
	cy := cmpSigns(signs, c.RHS)
	return cy == core.Equal || cy == cmpSigns(signs, c.LHS)
}
