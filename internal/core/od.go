package core

import (
	"fmt"
	"sort"
	"strings"
)

// OD is an order dependency X ↦ Y (Definition 4): in every satisfying
// relation instance, any two tuples ordered by ≼X are ordered the same way by
// ≼Y. Both sides are lists; attribute order matters.
type OD struct {
	LHS, RHS List
}

// NewOD builds the order dependency lhs ↦ rhs.
func NewOD(lhs, rhs List) OD { return OD{LHS: lhs, RHS: rhs} }

// String renders the OD as "[A, B] -> [C]".
func (od OD) String() string { return od.LHS.String() + " -> " + od.RHS.String() }

// Key returns a canonical string usable as a map key.
func (od OD) Key() string { return od.String() }

// Hash returns a 64-bit hash of the OD, combining the hashes of both sides
// asymmetrically so that X ↦ Y and Y ↦ X hash differently. ODs that are
// Equal hash identically; catalog code pairs Hash with Equal the way Hyrise
// pairs OrderDependency::hash() with operator==.
func (od OD) Hash() uint64 {
	h := od.LHS.Hash()
	return fnvMix(h*fnvPrime, od.RHS.Hash())
}

// Equal reports whether both sides match exactly.
func (od OD) Equal(other OD) bool {
	return od.LHS.Equal(other.LHS) && od.RHS.Equal(other.RHS)
}

// Reverse returns RHS ↦ LHS.
func (od OD) Reverse() OD { return OD{LHS: od.RHS, RHS: od.LHS} }

// Attrs returns the set of attributes mentioned by the OD.
func (od OD) Attrs() AttrSet {
	s := make(AttrSet, len(od.LHS)+len(od.RHS))
	s.AddAll(od.LHS, od.RHS)
	return s
}

// Trivial reports whether the OD holds in every relation instance. An OD
// X ↦ Y is trivial exactly when the normal form of Y is a prefix of the
// normal form of X: then it is derivable from Reflexivity and Normalization
// alone, and otherwise a two-row counterexample exists (see
// Pattern.FalsifyTrivial in the tests).
func (od OD) Trivial() bool {
	return od.LHS.Normalize().HasPrefix(od.RHS.Normalize())
}

// Equivalence returns the two ODs expressing X ↔ Y.
func Equivalence(x, y List) []OD {
	return []OD{{LHS: x, RHS: y}, {LHS: y, RHS: x}}
}

// OrderCompat returns the two ODs expressing order compatibility X ~ Y
// (Definition 5): XY ↔ YX.
func OrderCompat(x, y List) []OD {
	xy := x.Concat(y)
	yx := y.Concat(x)
	return []OD{{LHS: xy, RHS: yx}, {LHS: yx, RHS: xy}}
}

// ConstantOD returns the OD [] ↦ [a] stating that attribute a is constant
// (Definition 18).
func ConstantOD(a Attribute) OD { return OD{LHS: nil, RHS: List{a}} }

// FDForm returns the OD X ↦ XY, which holds iff the functional dependency
// set(X) → set(Y) holds (Theorem 13).
func (od OD) FDForm() OD {
	return OD{LHS: od.LHS, RHS: od.LHS.Concat(od.RHS)}
}

// AttrsOf collects the attributes mentioned across a set of ODs.
func AttrsOf(ods []OD) AttrSet {
	s := make(AttrSet)
	for _, od := range ods {
		s.AddAll(od.LHS, od.RHS)
	}
	return s
}

// SortODs orders a slice of ODs by their canonical string, for deterministic
// output.
func SortODs(ods []OD) {
	sort.Slice(ods, func(i, j int) bool { return ods[i].Key() < ods[j].Key() })
}

// ODsString renders a set of ODs on one line, e.g. "{[A] -> [B]; [B] -> [C]}".
func ODsString(ods []OD) string {
	parts := make([]string, len(ods))
	for i, od := range ods {
		parts[i] = od.String()
	}
	return "{" + strings.Join(parts, "; ") + "}"
}

// ViolationKind classifies how a relation falsifies an OD (Theorem 15): by a
// split (a functional-dependency violation, Definition 13) or by a swap (an
// order-compatibility violation, Definition 14).
type ViolationKind uint8

// The two falsification kinds.
const (
	Split ViolationKind = iota + 1
	Swap
)

// String names the violation kind.
func (k ViolationKind) String() string {
	switch k {
	case Split:
		return "split"
	case Swap:
		return "swap"
	default:
		return fmt.Sprintf("ViolationKind(%d)", uint8(k))
	}
}

// Violation is a concrete witness that a relation falsifies an OD: rows S and
// T with S ≼X T but S ⋠Y T. Kind is Split when the rows tie on X (so the
// witness contradicts the FD set(X) → set(Y)) and Swap when S ≺X T strictly
// but T ≺Y S.
type Violation struct {
	OD   OD
	Kind ViolationKind
	S, T int
}

// Error implements the error interface so violations can flow through error
// channels in constraint-checking code.
func (v *Violation) Error() string {
	return fmt.Sprintf("core: %s falsified by %s between rows %d and %d", v.OD, v.Kind, v.S, v.T)
}

// Satisfies checks r ⊨ X ↦ Y in O(n log n) time: it sorts the rows by ≼X and
// scans adjacent pairs. Within an X-tie group all rows must tie on Y
// (otherwise a split); across the group boundary the Y-order must not
// descend (otherwise a swap). Transitivity of the lexicographic preorder
// makes the adjacent scan complete. It returns a witness when falsified.
// Sort and scan both compare the columns' rank codes, not Values.
func (r *Relation) Satisfies(od OD) (bool, *Violation, error) {
	lhs, err := r.ranks(od.LHS, nil)
	if err != nil {
		return false, nil, err
	}
	// Validate RHS attributes even for degenerate row counts.
	rhs, err := r.ranks(od.RHS, nil)
	if err != nil {
		return false, nil, err
	}
	kind, s, t := scanRanks(len(r.rows), lhs, rhs)
	if kind == 0 {
		return true, nil, nil
	}
	return false, &Violation{OD: od, Kind: kind, S: s, T: t}, nil
}

// SatisfiesDirected is Satisfies for lists whose attributes each carry a
// sort direction, as in ORDER BY A ASC, B DESC: lhsDir[i] and rhsDir[i] are
// Greater for an ascending and Less for a descending attribute. A descending
// attribute compares its values in reverse, so with every direction Greater
// it is Satisfies.
func (r *Relation) SatisfiesDirected(lhs List, lhsDir []Sign, rhs List, rhsDir []Sign) (bool, error) {
	x, err := r.ranks(lhs, lhsDir)
	if err != nil {
		return false, err
	}
	y, err := r.ranks(rhs, rhsDir)
	if err != nil {
		return false, err
	}
	kind, _, _ := scanRanks(len(r.rows), x, y)
	return kind == 0, nil
}

// scanRanks sorts n rows by the lhs rank columns and scans adjacent pairs
// for the first split or swap against the rhs columns, returning its kind
// and rows S, T as Violation reports them, or kind 0 when there is none.
func scanRanks(n int, lhs, rhs []*rankColumn) (ViolationKind, int, int) {
	idx := radixSort(n, lhs)
	for k := 0; k+1 < len(idx); k++ {
		s, t := idx[k], idx[k+1]
		cx := cmpRanks(lhs, s, t)
		cy := cmpRanks(rhs, s, t)
		switch {
		case cx == 0 && cy != 0:
			if cy > 0 {
				s, t = t, s
			}
			return Split, s, t
		case cx < 0 && cy > 0:
			return Swap, s, t
		}
	}
	return 0, 0, 0
}

// SatisfiesNaive checks r ⊨ X ↦ Y by comparing every pair of rows directly
// against Definition 4. It is quadratic and exists to cross-validate
// Satisfies in tests.
func (r *Relation) SatisfiesNaive(od OD) (bool, *Violation, error) {
	n := len(r.rows)
	for _, a := range od.LHS.Concat(od.RHS) {
		if !r.HasAttr(a) {
			return false, nil, fmt.Errorf("core: attribute %s not in schema %v", a, r.attrs)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			cx, err := r.CompareOn(i, j, od.LHS)
			if err != nil {
				return false, nil, err
			}
			if cx > 0 {
				continue // only pairs with row i ≼X row j constrain the OD
			}
			cy, err := r.CompareOn(i, j, od.RHS)
			if err != nil {
				return false, nil, err
			}
			if cy > 0 {
				kind := Swap
				if cx == 0 {
					kind = Split
				}
				return false, &Violation{OD: od, Kind: kind, S: i, T: j}, nil
			}
		}
	}
	return true, nil, nil
}

// SatisfiesAll reports whether r satisfies every OD in ods, returning the
// first violation otherwise.
func (r *Relation) SatisfiesAll(ods []OD) (bool, *Violation, error) {
	for _, od := range ods {
		ok, v, err := r.Satisfies(od)
		if err != nil {
			return false, nil, err
		}
		if !ok {
			return false, v, nil
		}
	}
	return true, nil, nil
}

// OrderCompatible reports whether r ⊨ X ~ Y, i.e. r satisfies XY ↔ YX.
func (r *Relation) OrderCompatible(x, y List) (bool, *Violation, error) {
	return r.SatisfiesAll(OrderCompat(x, y))
}

// Equivalent reports whether r ⊨ X ↔ Y.
func (r *Relation) Equivalent(x, y List) (bool, *Violation, error) {
	return r.SatisfiesAll(Equivalence(x, y))
}
