package core

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The value kinds supported by the engine. Null sorts before every non-null
// value, matching the SQL "NULLS FIRST" convention for ascending order.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
)

// Value is a typed cell value. Values of different kinds compare by kind
// order, so relations with heterogeneous columns still have a total order;
// well-typed tables never rely on that. Ints and floats compare with one
// another exactly, as the numbers they denote; NaN equals NaN and sorts
// below every other number. Compare is therefore a total preorder, which
// the sort-based satisfaction check and the rank codes rely on.
type Value struct {
	Kind Kind
	Int  int64
	F    float64
	Str  string
}

// Null returns the null value.
func Null() Value { return Value{Kind: KindNull} }

// Int returns an integer value.
func Int(v int64) Value { return Value{Kind: KindInt, Int: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{Kind: KindFloat, F: v} }

// Str returns a string value.
func Str(v string) Value { return Value{Kind: KindString, Str: v} }

// Compare returns -1, 0 or +1 as v sorts before, equal to or after w.
func (v Value) Compare(w Value) int {
	if v.Kind != w.Kind {
		// Numeric kinds compare with one another; otherwise kind order.
		if v.Kind == KindInt && w.Kind == KindFloat {
			return cmpIntFloat(v.Int, w.F)
		}
		if v.Kind == KindFloat && w.Kind == KindInt {
			return -cmpIntFloat(w.Int, v.F)
		}
		if v.Kind < w.Kind {
			return -1
		}
		return 1
	}
	switch v.Kind {
	case KindNull:
		return 0
	case KindInt:
		return cmp.Compare(v.Int, w.Int)
	case KindFloat:
		// cmp.Compare puts NaN below every other float and equal to NaN.
		return cmp.Compare(v.F, w.F)
	default:
		return cmp.Compare(v.Str, w.Str)
	}
}

// cmpIntFloat compares an integer with a float exactly. Converting the
// integer to float64 would round past 2^53 and make Int(2^53) and
// Int(2^53+1) both equal Float(2^53), breaking transitivity.
func cmpIntFloat(i int64, f float64) int {
	switch {
	case math.IsNaN(f):
		return 1
	case f >= 0x1p63:
		return -1
	case f < -0x1p63:
		return 1
	}
	// f is within int64 range, so its integer part converts exactly.
	t := math.Trunc(f)
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return cmp.Compare(t, f) // i is f's integer part: the fraction decides
}

// Equal reports whether v and w compare equal.
func (v Value) Equal(w Value) bool { return v.Compare(w) == 0 }

// String renders the value for display.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	default:
		return v.Str
	}
}

// GoString implements fmt.GoStringer for test failure output.
func (v Value) GoString() string { return fmt.Sprintf("core.Value(%s)", v.String()) }
