package polar

import (
	"context"
	"fmt"

	"odlib/internal/core"
	"odlib/internal/prover"
)

// Prover decides implication for polarized ODs. Two-tuple locality survives
// polarization — a polarized OD still constrains pairs of tuples — so the
// sign-pattern search of internal/prover decides it: each attribute compiles
// to a prover.Term whose direction is the attribute's polarity.
type Prover struct {
	ods   []OD
	cache map[string]bool
}

// DefaultMaxAttrs is the unpolarized prover's attribute guard.
const DefaultMaxAttrs = prover.DefaultMaxAttrs

// NewProver builds a prover over the polarized constraint set.
func NewProver(m []OD) *Prover {
	ods := make([]OD, len(m))
	copy(ods, m)
	return &Prover{ods: ods, cache: make(map[string]bool)}
}

// Implies reports whether the constraints logically imply od.
func (p *Prover) Implies(od OD) (bool, error) { return p.ImpliesCtx(context.Background(), od) }

// ImpliesCtx is Implies honoring cancellation: when ctx is cancelled the
// search aborts and the context's error is returned.
func (p *Prover) ImpliesCtx(ctx context.Context, od OD) (bool, error) {
	key := od.String()
	if v, ok := p.cache[key]; ok {
		return v, nil
	}
	attrs := make(core.AttrSet)
	collect := func(l List) {
		for _, a := range l {
			attrs.Add(a.Name)
		}
	}
	for _, m := range p.ods {
		collect(m.LHS)
		collect(m.RHS)
	}
	collect(od.LHS)
	collect(od.RHS)
	universe := attrs.Sorted()
	if len(universe) > DefaultMaxAttrs {
		return false, fmt.Errorf("polar: question mentions %d attributes, exceeding the limit of %d",
			len(universe), DefaultMaxAttrs)
	}
	compile := func(c OD) prover.Compiled {
		terms := func(l List) []prover.Term {
			out := make([]prover.Term, len(l))
			for i, a := range l {
				out[i] = prover.Term{Idx: int32(universe.Index(a.Name)), Dir: core.Sign(a.Dir)}
			}
			return out
		}
		return prover.Compiled{LHS: terms(c.LHS), RHS: terms(c.RHS)}
	}
	m := make([]prover.Compiled, len(p.ods))
	for i, c := range p.ods {
		m[i] = compile(c)
	}
	w, err := prover.Counterexample(ctx, universe, m, compile(od))
	if err != nil {
		return false, err
	}
	p.cache[key] = w == nil
	return w == nil, nil
}

// ReduceOrder minimizes a polarized ORDER BY list under the constraints:
// a contiguous segment is dropped when the prefix to its left ties it (the
// polarized Eliminate, via the FD-form OD prefix ↦ prefix·seg) or when a
// list immediately to its right orders it (the polarized Left Eliminate).
// The reduced list is order equivalent to the input under the constraints.
func (p *Prover) ReduceOrder(order List) (List, error) {
	cur := normalizePolar(order)
	for changed := true; changed; {
		changed = false
		for i := len(cur) - 1; i >= 0 && !changed; i-- {
			for l := 1; i+l <= len(cur) && !changed; l++ {
				seg := cur[i : i+l]
				rest := cur.Suffix(i + l)
				prefix := cur.Prefix(i)
				ok, err := p.Implies(NewOD(prefix, prefix.Concat(List(seg))))
				if err != nil {
					return nil, err
				}
				if ok {
					cur = prefix.Concat(rest)
					changed = true
					break
				}
				for j := 1; j <= len(rest); j++ {
					post := rest.Prefix(j)
					ok, err := p.Implies(NewOD(post, List(seg)))
					if err != nil {
						return nil, err
					}
					if ok {
						cur = prefix.Concat(rest)
						changed = true
						break
					}
				}
			}
		}
	}
	return cur, nil
}

// normalizePolar drops attributes whose name already occurred, regardless
// of polarity: once an attribute's value is fixed by an earlier tie, its
// direction is irrelevant.
func normalizePolar(l List) List {
	seen := make(map[core.Attribute]bool, len(l))
	out := make(List, 0, len(l))
	for _, a := range l {
		if !seen[a.Name] {
			seen[a.Name] = true
			out = append(out, a)
		}
	}
	return out
}
