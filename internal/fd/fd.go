package fd

import (
	"sort"
	"strings"

	"odlib/internal/core"
)

// FD is a functional dependency LHS → RHS between attribute sets.
type FD struct {
	LHS, RHS core.AttrSet
}

// New builds the FD {lhs} → {rhs} from attribute lists.
func New(lhs, rhs core.List) FD {
	return FD{LHS: lhs.Set(), RHS: rhs.Set()}
}

// String renders the FD as "{A, B} -> {C}".
func (f FD) String() string { return f.LHS.String() + " -> " + f.RHS.String() }

// Trivial reports whether the FD holds in every relation (RHS ⊆ LHS).
func (f FD) Trivial() bool { return f.RHS.SubsetOf(f.LHS) }

// Attrs returns all attributes mentioned by the FD.
func (f FD) Attrs() core.AttrSet { return f.LHS.Union(f.RHS) }

// FromOD returns the FD implied by an OD (Lemma 1): set(X) → set(Y).
func FromOD(od core.OD) FD { return New(od.LHS, od.RHS) }

// FromODs maps a set of ODs to their implied FDs.
func FromODs(ods []core.OD) []FD {
	out := make([]FD, len(ods))
	for i, od := range ods {
		out[i] = FromOD(od)
	}
	return out
}

// Compiled is an FD set interned to dense attribute IDs and compiled to an
// Index once, so repeated closures and implication tests over the same set
// pay only for the closure itself. It is immutable and safe for concurrent
// use.
type Compiled struct {
	ids   map[core.Attribute]int32
	names []core.Attribute
	index *Index
}

// Compile interns the attributes of fds and compiles the set for repeated
// closures.
func Compile(fds []FD) *Compiled {
	total := 0
	for _, f := range fds {
		total += len(f.LHS) + len(f.RHS)
	}
	c := &Compiled{ids: make(map[core.Attribute]int32, total)}
	flat := make([]int32, 0, total)
	side := func(s core.AttrSet) []int32 {
		start := len(flat)
		for a := range s {
			i, ok := c.ids[a]
			if !ok {
				i = int32(len(c.names))
				c.ids[a] = i
				c.names = append(c.names, a)
			}
			flat = append(flat, i)
		}
		return flat[start:len(flat):len(flat)]
	}
	dense := make([]DenseFD, len(fds))
	for i, f := range fds {
		dense[i] = DenseFD{LHS: side(f.LHS), RHS: side(f.RHS)}
	}
	c.index = NewIndex(len(c.names), dense)
	return c
}

// closure returns the closure of attrs over the interned IDs. Attributes no
// FD mentions determine nothing, so they are left out of the seed.
func (c *Compiled) closure(attrs core.AttrSet) Bits {
	seed := NewBits(len(c.names))
	for a := range attrs {
		if i, ok := c.ids[a]; ok {
			seed.Set(i)
		}
	}
	return c.index.Closure(seed)
}

// Closure computes the attribute-set closure attrs⁺: the largest set of
// attributes functionally determined by attrs.
func (c *Compiled) Closure(attrs core.AttrSet) core.AttrSet {
	out := attrs.Clone()
	cl := c.closure(attrs)
	for i, a := range c.names {
		if cl.Has(int32(i)) {
			out.Add(a)
		}
	}
	return out
}

// Implies reports whether the set logically implies f, by the closure test
// f.RHS ⊆ f.LHS⁺.
func (c *Compiled) Implies(f FD) bool {
	if f.RHS.SubsetOf(f.LHS) {
		return true
	}
	cl := c.closure(f.LHS)
	for a := range f.RHS {
		if f.LHS.Contains(a) {
			continue
		}
		if i, ok := c.ids[a]; !ok || !cl.Has(i) {
			return false
		}
	}
	return true
}

// Closure computes the attribute-set closure attrs⁺ under the given FDs: the
// largest set of attributes functionally determined by attrs. Callers that
// close many sets under one FD set should Compile it once instead.
func Closure(attrs core.AttrSet, fds []FD) core.AttrSet {
	return Compile(fds).Closure(attrs)
}

// Implies reports whether the FD set logically implies f, by the closure
// test f.RHS ⊆ f.LHS⁺.
func Implies(fds []FD, f FD) bool {
	return Compile(fds).Implies(f)
}

// ImpliesOD reports whether the FDs imply the FD corresponding to an OD,
// i.e. whether the "split" half of the OD (X ↦ XY, Theorem 15) follows.
func ImpliesOD(fds []FD, od core.OD) bool {
	return Implies(fds, FromOD(od))
}

// Equivalent reports whether two FD sets imply each other.
func Equivalent(a, b []FD) bool {
	for _, f := range a {
		if !Implies(b, f) {
			return false
		}
	}
	for _, f := range b {
		if !Implies(a, f) {
			return false
		}
	}
	return true
}

// MinimalCover returns a minimal cover of the FD set: singleton right-hand
// sides, no redundant left-hand attributes, no redundant dependencies. The
// result is equivalent to the input.
func MinimalCover(fds []FD) []FD {
	// 1. Split right-hand sides into singletons and drop trivial FDs.
	var work []FD
	for _, f := range fds {
		for a := range f.RHS {
			if f.LHS.Contains(a) {
				continue
			}
			work = append(work, FD{LHS: f.LHS.Clone(), RHS: core.NewAttrSet(a)})
		}
	}
	sortFDs(work)
	// 2. Remove extraneous left-hand attributes.
	for i := range work {
		for _, a := range work[i].LHS.Sorted() {
			reduced := work[i].LHS.Clone()
			delete(reduced, a)
			if work[i].RHS.SubsetOf(Closure(reduced, work)) {
				work[i] = FD{LHS: reduced, RHS: work[i].RHS}
			}
		}
	}
	// 3. Remove redundant dependencies.
	out := make([]FD, 0, len(work))
	for i := range work {
		rest := make([]FD, 0, len(work)-1)
		rest = append(rest, out...)
		rest = append(rest, work[i+1:]...)
		if !Implies(rest, work[i]) {
			out = append(out, work[i])
		}
	}
	return out
}

func sortFDs(fds []FD) {
	sort.Slice(fds, func(i, j int) bool { return fds[i].String() < fds[j].String() })
}

// Satisfies reports whether relation r satisfies the FD, returning a witness
// pair of row indices when it does not. By Theorem 13 the FD set(X) → set(Y)
// holds exactly when the OD X ↦ XY does, and that OD can only fail by a
// split: the witness rows tie on X and differ on Y.
func Satisfies(r *core.Relation, f FD) (bool, [2]int, error) {
	lhs := f.LHS.Sorted()
	ok, v, err := r.Satisfies(core.NewOD(lhs, lhs.Concat(f.RHS.Sorted())))
	if err != nil || ok {
		return ok, [2]int{}, err
	}
	return false, [2]int{v.S, v.T}, nil
}

// String renders a set of FDs.
func String(fds []FD) string {
	parts := make([]string, len(fds))
	for i, f := range fds {
		parts[i] = f.String()
	}
	return "{" + strings.Join(parts, "; ") + "}"
}
