package polar

import (
	"fmt"
	"strings"

	"odlib/internal/core"
)

// Dir is a sort direction.
type Dir int8

// The two directions.
const (
	Asc  Dir = 1
	Desc Dir = -1
)

// String renders the direction as SQL.
func (d Dir) String() string {
	if d == Desc {
		return "desc"
	}
	return "asc"
}

// Attr is a direction-annotated attribute.
type Attr struct {
	Name core.Attribute
	Dir  Dir
}

// A builds an ascending attribute, D a descending one.
func A(name string) Attr { return Attr{Name: core.Attribute(name), Dir: Asc} }

// D builds a descending attribute.
func D(name string) Attr { return Attr{Name: core.Attribute(name), Dir: Desc} }

// String renders the attribute with a "-" prefix when descending.
func (a Attr) String() string {
	if a.Dir == Desc {
		return "-" + string(a.Name)
	}
	return string(a.Name)
}

// Flip reverses the direction.
func (a Attr) Flip() Attr {
	a.Dir = -a.Dir
	return a
}

// List is a polarized attribute list.
type List []Attr

// L builds a polarized list from "+/-"-prefixed names: L("A", "-B").
func L(names ...string) List {
	out := make(List, len(names))
	for i, n := range names {
		if strings.HasPrefix(n, "-") {
			out[i] = D(strings.TrimPrefix(n, "-"))
		} else {
			out[i] = A(strings.TrimPrefix(n, "+"))
		}
	}
	return out
}

// FromPlain lifts an unpolarized list to all-ascending.
func FromPlain(l core.List) List {
	out := make(List, len(l))
	for i, a := range l {
		out[i] = Attr{Name: a, Dir: Asc}
	}
	return out
}

// Names returns the underlying attribute list, directions dropped.
func (l List) Names() core.List {
	out := make(core.List, len(l))
	for i, a := range l {
		out[i] = a.Name
	}
	return out
}

// Flip reverses every direction.
func (l List) Flip() List {
	out := make(List, len(l))
	for i, a := range l {
		out[i] = a.Flip()
	}
	return out
}

// Concat concatenates polarized lists.
func (l List) Concat(others ...List) List {
	out := make(List, 0, len(l))
	out = append(out, l...)
	for _, o := range others {
		out = append(out, o...)
	}
	return out
}

// Equal reports list identity including directions.
func (l List) Equal(m List) bool {
	if len(l) != len(m) {
		return false
	}
	for i := range l {
		if l[i] != m[i] {
			return false
		}
	}
	return true
}

// Prefix returns the first n entries.
func (l List) Prefix(n int) List {
	if n <= 0 {
		return nil
	}
	if n > len(l) {
		n = len(l)
	}
	return l[:n]
}

// Suffix returns the entries from position n on.
func (l List) Suffix(n int) List {
	if n <= 0 {
		return l
	}
	if n >= len(l) {
		return nil
	}
	return l[n:]
}

// String renders the list as "[A, -B]".
func (l List) String() string {
	parts := make([]string, len(l))
	for i, a := range l {
		parts[i] = a.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// OD is a polarized order dependency.
type OD struct {
	LHS, RHS List
}

// NewOD builds lhs ↦ rhs.
func NewOD(lhs, rhs List) OD { return OD{LHS: lhs, RHS: rhs} }

// String renders the dependency.
func (od OD) String() string { return od.LHS.String() + " -> " + od.RHS.String() }

// Flip reverses every direction on both sides; by negation duality the
// flipped dependency holds exactly when the original does.
func (od OD) Flip() OD { return OD{LHS: od.LHS.Flip(), RHS: od.RHS.Flip()} }

// Satisfies checks r ⊨ od with core's sort-and-scan check, which compares
// a descending attribute's rank codes in reverse.
func Satisfies(r *core.Relation, od OD) (bool, error) {
	split := func(l List) (core.List, []core.Sign) {
		names, dirs := make(core.List, len(l)), make([]core.Sign, len(l))
		for i, a := range l {
			names[i], dirs[i] = a.Name, core.Sign(a.Dir)
		}
		return names, dirs
	}
	for _, a := range od.LHS.Concat(od.RHS) {
		if !r.HasAttr(a.Name) {
			return false, fmt.Errorf("polar: attribute %s not in schema %v", a.Name, r.Attrs())
		}
	}
	lhs, lhsDir := split(od.LHS)
	rhs, rhsDir := split(od.RHS)
	return r.SatisfiesDirected(lhs, lhsDir, rhs, rhsDir)
}

// ParseList parses "[A, -B]" (brackets optional): "-" marks descending.
func ParseList(s string) (List, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "[") {
		if !strings.HasSuffix(s, "]") {
			return nil, fmt.Errorf("polar: unbalanced brackets in %q", s)
		}
		s = s[1 : len(s)-1]
	}
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out List
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		dir := Asc
		if strings.HasPrefix(part, "-") {
			dir = Desc
			part = strings.TrimSpace(strings.TrimPrefix(part, "-"))
		}
		inner, err := core.ParseList(part)
		if err != nil || len(inner) != 1 {
			return nil, fmt.Errorf("polar: bad attribute %q", part)
		}
		out = append(out, Attr{Name: inner[0], Dir: dir})
	}
	return out, nil
}

// ParseOD parses "[A, -B] -> [C]".
func ParseOD(s string) (OD, error) {
	parts := strings.SplitN(s, "->", 2)
	if len(parts) != 2 {
		return OD{}, fmt.Errorf("polar: missing -> in %q", s)
	}
	lhs, err := ParseList(parts[0])
	if err != nil {
		return OD{}, err
	}
	rhs, err := ParseList(parts[1])
	if err != nil {
		return OD{}, err
	}
	return OD{LHS: lhs, RHS: rhs}, nil
}
