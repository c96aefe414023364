package armstrong

import (
	"fmt"

	"odlib/internal/core"
	"odlib/internal/fd"
	"odlib/internal/prover"
)

// DefaultMaxAttrs bounds universe sizes: the constructions enumerate
// attribute subsets and sign patterns, so they are exponential by nature.
const DefaultMaxAttrs = 10

// Append implements Definition 17: it shifts t1 to a minimum of zero, shifts
// t2 above t1's maximum, and unions the rows. Schemas must agree and all
// values must be integers.
func Append(t1, t2 *core.Relation) (*core.Relation, error) {
	if !t1.Attrs().Equal(t2.Attrs()) {
		return nil, fmt.Errorf("armstrong: append schemas differ: %v vs %v", t1.Attrs(), t2.Attrs())
	}
	if t1.Len() == 0 {
		return t2.Clone(), nil
	}
	if t2.Len() == 0 {
		return t1.Clone(), nil
	}
	min1, _, err := intRange(t1)
	if err != nil {
		return nil, err
	}
	out := core.MustRelation(t1.Attrs())
	for i := 0; i < t1.Len(); i++ {
		row := make([]core.Value, len(t1.Attrs()))
		for j, v := range t1.Row(i) {
			row[j] = core.Int(v.Int - min1)
		}
		if err := out.AddRow(row...); err != nil {
			return nil, err
		}
	}
	_, max1, err := intRange(out)
	if err != nil {
		return nil, err
	}
	min2, _, err := intRange(t2)
	if err != nil {
		return nil, err
	}
	shift := max1 + 1 - min2
	for i := 0; i < t2.Len(); i++ {
		row := make([]core.Value, len(t2.Attrs()))
		for j, v := range t2.Row(i) {
			row[j] = core.Int(v.Int + shift)
		}
		if err := out.AddRow(row...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// AppendAll folds Append over a sequence of tables with a common schema.
func AppendAll(tables ...*core.Relation) (*core.Relation, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("armstrong: nothing to append")
	}
	out := tables[0]
	for _, t := range tables[1:] {
		var err error
		out, err = Append(out, t)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func intRange(r *core.Relation) (min, max int64, err error) {
	if r.Len() == 0 {
		return 0, 0, nil
	}
	first := true
	for i := 0; i < r.Len(); i++ {
		for _, v := range r.Row(i) {
			if v.Kind != core.KindInt {
				return 0, 0, fmt.Errorf("armstrong: append requires integer values, found %s", v)
			}
			if first || v.Int < min {
				min = v.Int
			}
			if first || v.Int > max {
				max = v.Int
			}
			first = false
		}
	}
	return min, max, nil
}

// SplitTable builds the FD half of the canonical table (Figure 7): for every
// subset W of the universe it appends a two-row block that ties exactly on
// the Armstrong closure W⁺ of the FDs implied by M. The result satisfies M
// and falsifies every FD-form OD not implied by M.
func SplitTable(m []core.OD, universe core.List) (*core.Relation, error) {
	if err := checkUniverse(m, universe, DefaultMaxAttrs); err != nil {
		return nil, err
	}
	fds := fd.Compile(fd.FromODs(m))
	out := core.MustRelation(universe)
	n := len(universe)
	for mask := 0; mask < 1<<uint(n); mask++ {
		w := make(core.AttrSet)
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				w.Add(universe[i])
			}
		}
		closure := fds.Closure(w)
		block := core.MustRelation(universe)
		row1 := make([]core.Value, n)
		row2 := make([]core.Value, n)
		for i, a := range universe {
			row1[i] = core.Int(0)
			if closure.Contains(a) {
				row2[i] = core.Int(0)
			} else {
				row2[i] = core.Int(1)
			}
		}
		if err := block.AddRow(row1...); err != nil {
			return nil, err
		}
		if err := block.AddRow(row2...); err != nil {
			return nil, err
		}
		var err error
		out, err = Append(out, block)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Builder constructs canonical tables for one OD set, caching prover
// queries across the recursive construction.
type Builder struct {
	maxAttrs int
}

// NewBuilder returns a construction helper. maxAttrs ≤ 0 selects
// DefaultMaxAttrs.
func NewBuilder(maxAttrs int) *Builder {
	if maxAttrs <= 0 {
		maxAttrs = DefaultMaxAttrs
	}
	return &Builder{maxAttrs: maxAttrs}
}

// CanonicalTable builds split(M) append swap(M) over the given universe
// (Theorem 17): a relation that satisfies M and falsifies every OD over the
// universe that M does not imply.
//
// Constant attributes are handled first, per Lemma 8: appending sub-tables
// shifts values and therefore cannot preserve [] ↦ A (the exception in
// Lemma 9), so constants are projected out, the construction recurses on
// the reduced set, and the constants return as fixed columns.
func (b *Builder) CanonicalTable(m []core.OD, universe core.List) (*core.Relation, error) {
	if err := checkUniverse(m, universe, b.maxAttrs); err != nil {
		return nil, err
	}
	return b.canonical(m, universe, len(universe)+1)
}

func (b *Builder) canonical(m []core.OD, universe core.List, fuel int) (*core.Relation, error) {
	if fuel < 0 {
		return nil, fmt.Errorf("armstrong: canonical construction did not converge")
	}
	p := prover.New(m, prover.WithMaxAttrs(b.maxAttrs+2))
	consts, err := constantsIn(p, universe)
	if err != nil {
		return nil, err
	}
	if len(consts) > 0 {
		reducedU := universe.Minus(consts.Sorted())
		reducedM := projectOutODs(m, consts)
		sub, err := b.canonical(reducedM, reducedU, fuel-1)
		if err != nil {
			return nil, err
		}
		return widenWithConstants(sub, universe)
	}
	split, err := SplitTable(m, universe)
	if err != nil {
		return nil, err
	}
	swap, err := b.swapTable(m, universe, fuel)
	if err != nil {
		return nil, err
	}
	return Append(split, swap)
}

// constantsIn returns the attributes of the universe that M forces constant.
func constantsIn(p *prover.Prover, universe core.List) (core.AttrSet, error) {
	consts := make(core.AttrSet)
	for _, a := range universe {
		ok, err := p.IsConstant(a)
		if err != nil {
			return nil, err
		}
		if ok {
			consts.Add(a)
		}
	}
	return consts, nil
}

// SwapTable builds the order-compatibility half of the canonical table: for
// every maximal context in which some attribute pair must swap, a sub-table
// with the context frozen to constants (recursively constructed, Figure 8),
// and for pairs whose only context is empty, the direct two-row swap of
// Figure 9.
func (b *Builder) SwapTable(m []core.OD, universe core.List) (*core.Relation, error) {
	if err := checkUniverse(m, universe, b.maxAttrs); err != nil {
		return nil, err
	}
	return b.swapTable(m, universe, len(universe)+1)
}

func (b *Builder) swapTable(m []core.OD, universe core.List, fuel int) (*core.Relation, error) {
	if fuel < 0 {
		return nil, fmt.Errorf("armstrong: swap construction did not converge")
	}
	p := prover.New(m, prover.WithMaxAttrs(b.maxAttrs+2))

	// Lemma 8: project out constant attributes and recurse on the reduced
	// set, then re-add the constants as fixed columns.
	consts, err := constantsIn(p, universe)
	if err != nil {
		return nil, err
	}
	if len(consts) > 0 {
		reducedU := universe.Minus(consts.Sorted())
		reducedM := projectOutODs(m, consts)
		sub, err := b.swapTable(reducedM, reducedU, fuel-1)
		if err != nil {
			return nil, err
		}
		return widenWithConstants(sub, universe)
	}

	out := core.MustRelation(universe)
	seenContext := make(map[string]bool)
	for i := 0; i < len(universe); i++ {
		for j := i + 1; j < len(universe); j++ {
			a, c := universe[i], universe[j]
			contexts, err := maximalContexts(p, universe, a, c)
			if err != nil {
				return nil, err
			}
			for _, ctx := range contexts {
				if len(ctx) == 0 {
					two, err := b.emptyContextSwap(p, universe, a, c)
					if err != nil {
						return nil, err
					}
					out, err = Append(out, two)
					if err != nil {
						return nil, err
					}
					continue
				}
				key := ctx.Sorted().String()
				if seenContext[key] {
					continue
				}
				seenContext[key] = true
				// Freeze the context (Figure 8) and recurse: the frozen
				// attributes become constants, so the canonical recursion
				// projects them out and the non-constant universe strictly
				// shrinks (Hypothesis 1).
				frozen := make([]core.OD, 0, len(m)+len(ctx))
				frozen = append(frozen, m...)
				for _, fa := range ctx.Sorted() {
					frozen = append(frozen, core.ConstantOD(fa))
				}
				sub, err := b.canonical(frozen, universe, fuel-1)
				if err != nil {
					return nil, err
				}
				out, err = Append(out, sub)
				if err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// maximalContexts returns the maximal attribute sets C (disjoint from
// {a, b}) such that a swap between a and b must occur while C ties: some
// two-row pattern satisfies M with all of C tied and a, b strictly opposed.
// Context families are downward closed, so the maximal ones summarize all.
func maximalContexts(p *prover.Prover, universe core.List, a, b core.Attribute) ([]core.AttrSet, error) {
	rest := make(core.List, 0, len(universe))
	for _, x := range universe {
		if x != a && x != b {
			rest = append(rest, x)
		}
	}
	n := len(rest)
	var contexts []core.AttrSet
	// Descending popcount order so that maximality checks only look at
	// already-accepted (larger or equal) contexts.
	masks := make([][]int, n+1)
	for mask := 0; mask < 1<<uint(n); mask++ {
		pc := popcount(mask)
		masks[pc] = append(masks[pc], mask)
	}
	for size := n; size >= 0; size-- {
		for _, mask := range masks[size] {
			ctx := make(core.AttrSet)
			z := make(core.List, 0, size)
			for i := 0; i < n; i++ {
				if mask&(1<<uint(i)) != 0 {
					ctx.Add(rest[i])
					z = append(z, rest[i])
				}
			}
			covered := false
			for _, larger := range contexts {
				if ctx.SubsetOf(larger) {
					covered = true
					break
				}
			}
			if covered {
				continue
			}
			compatible, err := p.OrderCompatible(z.Concat(core.List{a}), z.Concat(core.List{b}))
			if err != nil {
				return nil, err
			}
			if !compatible {
				contexts = append(contexts, ctx)
			}
		}
	}
	return contexts, nil
}

func popcount(x int) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

// emptyContextSwap builds the two-row table of Figure 9 for a pair whose
// only swap context is empty: the order-compatibility component of b
// descends while everything else ascends. The Chain axiom (OD6) guarantees
// the components of a and b are disjoint (Lemma 12).
func (b *Builder) emptyContextSwap(p *prover.Prover, universe core.List, a, c core.Attribute) (*core.Relation, error) {
	compB, err := compatComponent(p, universe, c)
	if err != nil {
		return nil, err
	}
	if compB.Contains(a) {
		return nil, fmt.Errorf(
			"armstrong: %s and %s are chain-connected yet need an empty-context swap; constraint set is inconsistent with Lemma 12", a, c)
	}
	out := core.MustRelation(universe)
	row1 := make([]core.Value, len(universe))
	row2 := make([]core.Value, len(universe))
	for i, x := range universe {
		if compB.Contains(x) {
			row1[i] = core.Int(1)
			row2[i] = core.Int(0)
		} else {
			row1[i] = core.Int(0)
			row2[i] = core.Int(1)
		}
	}
	if err := out.AddRow(row1...); err != nil {
		return nil, err
	}
	if err := out.AddRow(row2...); err != nil {
		return nil, err
	}
	return out, nil
}

// compatComponent returns the set of attributes connected to start by
// single-attribute order compatibility in M⁺.
func compatComponent(p *prover.Prover, universe core.List, start core.Attribute) (core.AttrSet, error) {
	comp := core.NewAttrSet(start)
	frontier := core.List{start}
	for len(frontier) > 0 {
		next := core.List{}
		for _, x := range frontier {
			for _, y := range universe {
				if comp.Contains(y) {
					continue
				}
				ok, err := p.OrderCompatible(core.List{x}, core.List{y})
				if err != nil {
					return nil, err
				}
				if ok {
					comp.Add(y)
					next = append(next, y)
				}
			}
		}
		frontier = next
	}
	return comp, nil
}

// projectOutODs removes the given attributes from every list of every OD
// (the paper's "project out", Lemma 8).
func projectOutODs(m []core.OD, drop core.AttrSet) []core.OD {
	out := make([]core.OD, 0, len(m))
	for _, od := range m {
		out = append(out, core.NewOD(without(od.LHS, drop), without(od.RHS, drop)))
	}
	return out
}

func without(l core.List, drop core.AttrSet) core.List {
	out := make(core.List, 0, len(l))
	for _, a := range l {
		if !drop.Contains(a) {
			out = append(out, a)
		}
	}
	return out
}

// widenWithConstants extends a relation to the full universe by adding the
// missing attributes as constant zero columns (Lemma 8). When the sub-table
// is empty a single all-zero row is produced so the constants exist.
func widenWithConstants(sub *core.Relation, universe core.List) (*core.Relation, error) {
	out := core.MustRelation(universe)
	rows := sub.Len()
	if rows == 0 {
		row := make([]core.Value, len(universe))
		for i := range row {
			row[i] = core.Int(0)
		}
		if err := out.AddRow(row...); err != nil {
			return nil, err
		}
		return out, nil
	}
	for i := 0; i < rows; i++ {
		row := make([]core.Value, len(universe))
		for j, a := range universe {
			if sub.HasAttr(a) {
				v, err := sub.Value(i, a)
				if err != nil {
					return nil, err
				}
				row[j] = v
			} else {
				row[j] = core.Int(0)
			}
		}
		if err := out.AddRow(row...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// EnumerationTable appends one two-row block for every sign pattern over the
// universe that satisfies M (up to negation symmetry). By two-row locality
// it satisfies M and falsifies every OD over the universe not implied by M;
// it serves as a provably complete cross-check of CanonicalTable.
func EnumerationTable(m []core.OD, universe core.List) (*core.Relation, error) {
	if err := checkUniverse(m, universe, DefaultMaxAttrs); err != nil {
		return nil, err
	}
	// Constants cannot survive appending (Lemma 9's exception); apply
	// Lemma 8 exactly as the canonical construction does.
	p := prover.New(m, prover.WithMaxAttrs(DefaultMaxAttrs+2))
	consts, err := constantsIn(p, universe)
	if err != nil {
		return nil, err
	}
	if len(consts) > 0 {
		sub, err := EnumerationTable(projectOutODs(m, consts), universe.Minus(consts.Sorted()))
		if err != nil {
			return nil, err
		}
		return widenWithConstants(sub, universe)
	}
	out := core.MustRelation(universe)
	pat := core.MustPattern(universe)
	signs := pat.Signs()
	var rec func(k int, seenLess bool) error
	rec = func(k int, seenLess bool) error {
		if k == len(signs) {
			if !seenLess { // all-Equal adds nothing
				return nil
			}
			if !pat.HoldsAll(m) {
				return nil
			}
			var err error
			out, err = Append(out, pat.Relation())
			return err
		}
		signs[k] = core.Equal
		if err := rec(k+1, seenLess); err != nil {
			return err
		}
		signs[k] = core.Less
		if err := rec(k+1, true); err != nil {
			return err
		}
		if seenLess {
			signs[k] = core.Greater
			if err := rec(k+1, true); err != nil {
				return err
			}
		}
		signs[k] = core.Equal
		return nil
	}
	if err := rec(0, false); err != nil {
		return nil, err
	}
	if out.Len() == 0 {
		// Everything is constant under M; a single row is the instance.
		row := make([]core.Value, len(universe))
		for i := range row {
			row[i] = core.Int(0)
		}
		if err := out.AddRow(row...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Complete reports whether table r agrees with prover-implication for every
// OD over the universe with sides up to maxLen attributes: r ⊨ φ iff M ⊨ φ.
// It returns the first disagreement found.
func Complete(r *core.Relation, m []core.OD, universe core.List, maxLen int) (bool, *core.OD, error) {
	p := prover.New(m)
	lists := enumerateLists(universe, maxLen)
	for _, lhs := range lists {
		for _, rhs := range lists {
			od := core.NewOD(lhs, rhs)
			holds, _, err := r.Satisfies(od)
			if err != nil {
				return false, nil, err
			}
			implied, err := p.Implies(od)
			if err != nil {
				return false, nil, err
			}
			if holds != implied {
				bad := od
				return false, &bad, nil
			}
		}
	}
	return true, nil, nil
}

// enumerateLists yields all duplicate-free lists over the universe of length
// up to maxLen, including the empty list.
func enumerateLists(universe core.List, maxLen int) []core.List {
	out := []core.List{nil}
	var rec func(cur core.List)
	rec = func(cur core.List) {
		if len(cur) >= maxLen {
			return
		}
		for _, a := range universe {
			if cur.Contains(a) {
				continue
			}
			next := cur.Concat(core.List{a})
			out = append(out, next)
			rec(next)
		}
	}
	rec(nil)
	return out
}

func checkUniverse(m []core.OD, universe core.List, limit int) error {
	if universe.HasDuplicates() {
		return fmt.Errorf("armstrong: universe %v repeats an attribute", universe)
	}
	if len(universe) > limit {
		return fmt.Errorf("armstrong: universe of %d attributes exceeds limit %d", len(universe), limit)
	}
	u := universe.Set()
	for _, od := range m {
		if !od.Attrs().SubsetOf(u) {
			return fmt.Errorf("armstrong: OD %s mentions attributes outside universe %v", od, universe)
		}
	}
	return nil
}
