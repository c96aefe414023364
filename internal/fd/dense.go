package fd

import (
	"math/bits"
	"slices"
)

// Bits is a set of dense attribute IDs held as a word-slice bitset: ID i is
// bit i%64 of word i/64. Sets wider than 64 attributes simply take more
// words.
type Bits []uint64

// NewBits returns an empty set with room for IDs 0..n-1.
func NewBits(n int) Bits { return make(Bits, (n+63)/64) }

// Has reports whether ID i is in the set.
func (b Bits) Has(i int32) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// Set adds ID i to the set.
func (b Bits) Set(i int32) { b[i>>6] |= 1 << (i & 63) }

// SubsetOf reports whether every ID of b is in c; c must be at least as wide.
func (b Bits) SubsetOf(c Bits) bool {
	for w, word := range b {
		if word&^c[w] != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of IDs in the set.
func (b Bits) Count() int {
	n := 0
	for _, word := range b {
		n += bits.OnesCount64(word)
	}
	return n
}

// DenseFD is an FD over dense attribute IDs. Repeated IDs are allowed.
type DenseFD struct {
	LHS, RHS []int32
}

// Index is an FD set compiled over the attribute IDs 0..n-1 for repeated
// closures. Closure runs the counter-based algorithm of Beeri and Bernstein:
// each FD waits on a count of left-hand attributes not yet derived, and an
// attribute entering the closure decrements the count of every FD whose
// left-hand side holds it, so the whole closure costs time linear in the
// FDs' total size rather than a pass over every FD per derived attribute.
type Index struct {
	n, words int
	need     []int32  // need[f]: distinct left-hand attributes of FD f
	rhs      []uint64 // FD f's right-hand side is Bits(rhs[f*words : (f+1)*words])
	useStart []int32  // FDs with attribute a on the left: use[useStart[a]:useStart[a+1]]
	use      []int32
	free     []int32 // FDs with an empty left-hand side
}

// NewIndex compiles the FDs over the IDs 0..n-1.
func NewIndex(n int, fds []DenseFD) *Index {
	x := &Index{
		n:        n,
		words:    (n + 63) / 64,
		need:     make([]int32, len(fds)),
		useStart: make([]int32, n+1),
	}
	x.rhs = make([]uint64, len(fds)*x.words)
	lhs := NewBits(n)
	for f, d := range fds {
		clear(lhs)
		for _, a := range d.LHS {
			if !lhs.Has(a) {
				lhs.Set(a)
				x.need[f]++
				x.useStart[a+1]++
			}
		}
		if x.need[f] == 0 {
			x.free = append(x.free, int32(f))
		}
		rhs := Bits(x.rhs[f*x.words : (f+1)*x.words])
		for _, a := range d.RHS {
			rhs.Set(a)
		}
	}
	for a := 0; a < n; a++ {
		x.useStart[a+1] += x.useStart[a]
	}
	x.use = make([]int32, x.useStart[n])
	fill := slices.Clone(x.useStart[:n])
	for f, d := range fds {
		clear(lhs)
		for _, a := range d.LHS {
			if !lhs.Has(a) {
				lhs.Set(a)
				x.use[fill[a]] = int32(f)
				fill[a]++
			}
		}
	}
	return x
}

// Closure returns seed⁺, the IDs functionally determined by seed, leaving
// seed unchanged. seed must have room for IDs 0..n-1 and may be wider: IDs
// past n enter the closure but determine nothing.
func (x *Index) Closure(seed Bits) Bits {
	cl := slices.Clone(seed)
	need := slices.Clone(x.need)
	var stack []int32
	for w, word := range cl {
		for ; word != 0; word &= word - 1 {
			stack = append(stack, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	derive := func(f int32) {
		rhs := x.rhs[int(f)*x.words : int(f+1)*x.words]
		for w, word := range rhs {
			fresh := word &^ cl[w]
			cl[w] |= fresh
			for ; fresh != 0; fresh &= fresh - 1 {
				stack = append(stack, int32(w<<6+bits.TrailingZeros64(fresh)))
			}
		}
	}
	for _, f := range x.free {
		derive(f)
	}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if int(a) >= x.n {
			continue
		}
		for _, f := range x.use[x.useStart[a]:x.useStart[a+1]] {
			if need[f]--; need[f] == 0 {
				derive(f)
			}
		}
	}
	return cl
}
