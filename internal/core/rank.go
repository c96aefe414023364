package core

import (
	"fmt"
	"slices"
)

// rankColumn is one column rank-encoded: code[i] is the rank of row i's value
// among the column's distinct values under Value.Compare (0 for the least),
// so comparing two rows' codes compares their values. distinct counts the
// ranks, which bounds the codes for counting sort.
type rankColumn struct {
	code     []int32
	distinct int
}

// rank returns the rank codes of column c, encoding the column on first use.
// Concurrent callers encode a column once: the first takes the lock and
// publishes, the rest either wait on the lock or load the published codes.
func (r *Relation) rank(c int) *rankColumn {
	if rc := r.codes[c].Load(); rc != nil {
		return rc
	}
	r.encodeMu.Lock()
	defer r.encodeMu.Unlock()
	if rc := r.codes[c].Load(); rc != nil {
		return rc
	}
	rc := encodeColumn(r.rows, c)
	r.codes[c].Store(rc)
	return rc
}

// ranks resolves a list to the rank columns of its attributes, dropping
// repeats: a repeated attribute can never decide a lexicographic comparison,
// since its first occurrence already tied. dirs, when not nil, gives each
// attribute's direction; a Less attribute gets its codes reversed.
func (r *Relation) ranks(x List, dirs []Sign) ([]*rankColumn, error) {
	if dirs != nil && len(dirs) != len(x) {
		return nil, fmt.Errorf("core: %d directions for the %d attributes of %v", len(dirs), len(x), x)
	}
	out := make([]*rankColumn, 0, len(x))
	for i, a := range x {
		c, err := r.Col(a)
		if err != nil {
			return nil, err
		}
		if x[:i].Contains(a) {
			continue
		}
		rc := r.rank(c)
		if dirs != nil && dirs[i] == Less {
			rc = rc.reversed()
		}
		out = append(out, rc)
	}
	return out, nil
}

// reversed returns the column's codes in reverse order: a descending sort.
func (rc *rankColumn) reversed() *rankColumn {
	out := &rankColumn{code: make([]int32, len(rc.code)), distinct: rc.distinct}
	top := int32(rc.distinct - 1)
	for i, c := range rc.code {
		out.code[i] = top - c
	}
	return out
}

// encodeColumn sorts the row indices by column c under Value.Compare and
// numbers the distinct values in order. Value.Compare is a total preorder, so
// equal values share a code and the codes are order-isomorphic to the values.
func encodeColumn(rows [][]Value, c int) *rankColumn {
	order := make([]int32, len(rows))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return rows[a][c].Compare(rows[b][c]) })
	rc := &rankColumn{code: make([]int32, len(rows))}
	k := int32(-1)
	for j, i := range order {
		if j == 0 || rows[order[j-1]][c].Compare(rows[i][c]) != 0 {
			k++
		}
		rc.code[i] = k
	}
	rc.distinct = int(k) + 1
	return rc
}

// radixSort orders the rows lexicographically by the given rank columns: a
// stable counting sort per column, least significant first. Starting from
// the identity order and keeping every pass stable, rows tied on all columns
// stay in index order — exactly the order a stable comparison sort by ≼
// produces.
func radixSort(n int, cols []*rankColumn) []int {
	var idx, spare, count []int // idx is nil while the order is the identity
	for k := len(cols) - 1; k >= 0; k-- {
		rc := cols[k]
		if rc.distinct <= 1 {
			continue // a constant column orders nothing
		}
		if cap(count) < rc.distinct {
			count = make([]int, rc.distinct)
		} else {
			count = count[:rc.distinct]
			clear(count)
		}
		for _, c := range rc.code {
			count[c]++
		}
		sum := 0
		for b, m := range count {
			count[b] = sum
			sum += m
		}
		out := spare
		if out == nil {
			out = make([]int, n)
		}
		if idx == nil {
			for i, c := range rc.code {
				out[count[c]] = i
				count[c]++
			}
		} else {
			for _, i := range idx {
				c := rc.code[i]
				out[count[c]] = i
				count[c]++
			}
		}
		idx, spare = out, idx
	}
	if idx == nil {
		idx = make([]int, n)
		for i := range idx {
			idx[i] = i
		}
	}
	return idx
}

// cmpRanks compares rows s and t lexicographically along the rank columns,
// returning -1, 0 or +1 like Relation.CompareOn.
func cmpRanks(cols []*rankColumn, s, t int) int {
	for _, rc := range cols {
		if a, b := rc.code[s], rc.code[t]; a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return 0
}
