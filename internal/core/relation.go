package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Relation is a relation instance: a schema (an attribute list, fixing column
// order) and a sequence of rows. The paper states its definitions over sets
// of tuples but notes that multisets change nothing; Relation allows
// duplicate rows.
//
// Sorting and satisfaction checks work on rank codes rather than on Values:
// each column is encoded once, on first use, into order-preserving int32
// codes (see rank). The codes live and die with the relation; AddRow drops
// them.
type Relation struct {
	attrs List
	pos   map[Attribute]int
	rows  [][]Value

	encodeMu sync.Mutex                   // serializes column encoding
	codes    []atomic.Pointer[rankColumn] // per column; nil until encoded
}

// NewRelation creates an empty relation over the given schema. It returns an
// error if the schema repeats an attribute.
func NewRelation(attrs List) (*Relation, error) {
	if attrs.HasDuplicates() {
		return nil, fmt.Errorf("core: schema %v repeats an attribute", attrs)
	}
	pos := make(map[Attribute]int, len(attrs))
	for i, a := range attrs {
		pos[a] = i
	}
	return &Relation{attrs: attrs.Clone(), pos: pos, codes: make([]atomic.Pointer[rankColumn], len(attrs))}, nil
}

// MustRelation is NewRelation that panics on schema errors; it is intended
// for literals in tests and examples.
func MustRelation(attrs List) *Relation {
	r, err := NewRelation(attrs)
	if err != nil {
		panic(err)
	}
	return r
}

// Attrs returns the relation's schema.
func (r *Relation) Attrs() List { return r.attrs }

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.rows) }

// HasAttr reports whether the schema contains attribute a.
func (r *Relation) HasAttr(a Attribute) bool {
	_, ok := r.pos[a]
	return ok
}

// Col returns the column index of attribute a, or an error if absent.
func (r *Relation) Col(a Attribute) (int, error) {
	i, ok := r.pos[a]
	if !ok {
		return 0, fmt.Errorf("core: attribute %s not in schema %v", a, r.attrs)
	}
	return i, nil
}

// AddRow appends a row. The number of values must match the schema. Like
// every mutation it must not run concurrently with readers of r; it drops
// the rank codes, which the next sort re-encodes.
func (r *Relation) AddRow(vals ...Value) error {
	if len(vals) != len(r.attrs) {
		return fmt.Errorf("core: row has %d values, schema %v has %d attributes",
			len(vals), r.attrs, len(r.attrs))
	}
	row := make([]Value, len(vals))
	copy(row, vals)
	r.rows = append(r.rows, row)
	for c := range r.codes {
		if r.codes[c].Load() != nil {
			r.codes[c].Store(nil)
		}
	}
	return nil
}

// AddIntRow appends a row of integer values.
func (r *Relation) AddIntRow(vals ...int64) error {
	row := make([]Value, len(vals))
	for i, v := range vals {
		row[i] = Int(v)
	}
	return r.AddRow(row...)
}

// Row returns row i. The returned slice must not be modified.
func (r *Relation) Row(i int) []Value { return r.rows[i] }

// Value returns the value of attribute a in row i.
func (r *Relation) Value(i int, a Attribute) (Value, error) {
	c, err := r.Col(a)
	if err != nil {
		return Value{}, err
	}
	return r.rows[i][c], nil
}

// Project returns a new relation over the attributes of x (first occurrences,
// duplicates removed) with the corresponding values of every row.
func (r *Relation) Project(x List) (*Relation, error) {
	x = x.Normalize()
	out, err := NewRelation(x)
	if err != nil {
		return nil, err
	}
	cols := make([]int, len(x))
	for i, a := range x {
		c, err := r.Col(a)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	for _, row := range r.rows {
		vals := make([]Value, len(cols))
		for i, c := range cols {
			vals[i] = row[c]
		}
		out.rows = append(out.rows, vals)
	}
	return out, nil
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	out := MustRelation(r.attrs)
	out.rows = make([][]Value, len(r.rows))
	for i, row := range r.rows {
		c := make([]Value, len(row))
		copy(c, row)
		out.rows[i] = c
	}
	return out
}

// CompareOn lexicographically compares rows i and j along the attribute list
// x (Definition 1). It returns -1 if row i ≺X row j, 0 if they are equal on
// X, and +1 otherwise. Comparing along the empty list yields 0: every tuple
// is ≼[] every other.
func (r *Relation) CompareOn(i, j int, x List) (int, error) {
	ri, rj := r.rows[i], r.rows[j]
	for _, a := range x {
		c, ok := r.pos[a]
		if !ok {
			return 0, fmt.Errorf("core: attribute %s not in schema %v", a, r.attrs)
		}
		if cmp := ri[c].Compare(rj[c]); cmp != 0 {
			return cmp, nil
		}
	}
	return 0, nil
}

// LeqOn reports row i ≼X row j (Definition 1).
func (r *Relation) LeqOn(i, j int, x List) (bool, error) {
	c, err := r.CompareOn(i, j, x)
	return c <= 0, err
}

// LessOn reports row i ≺X row j (Definition 2).
func (r *Relation) LessOn(i, j int, x List) (bool, error) {
	c, err := r.CompareOn(i, j, x)
	return c < 0, err
}

// EqOn reports row i =X row j (Definition 3), i.e. the rows agree on every
// attribute of x.
func (r *Relation) EqOn(i, j int, x List) (bool, error) {
	c, err := r.CompareOn(i, j, x)
	return c == 0, err
}

// SortedIndexOn returns the row indices of r ordered by ≼X. The sort is
// stable, so rows tied on X keep their relative order. It runs as a radix
// sort over the columns' rank codes.
func (r *Relation) SortedIndexOn(x List) ([]int, error) {
	cols, err := r.ranks(x, nil)
	if err != nil {
		return nil, err
	}
	return radixSort(len(r.rows), cols), nil
}

// String renders the relation as a small aligned table for test output.
func (r *Relation) String() string {
	var b strings.Builder
	for i, a := range r.attrs {
		if i > 0 {
			b.WriteByte('\t')
		}
		b.WriteString(string(a))
	}
	b.WriteByte('\n')
	for _, row := range r.rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
