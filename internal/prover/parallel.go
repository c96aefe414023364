package prover

import (
	"context"
	"sync"
	"sync/atomic"

	"odlib/internal/core"
)

// Parallel pattern search: the sign-enumeration tree is split on its first
// few levels into prefixes, the DFS-ordered prefix list is cut into one
// contiguous block per worker, and each worker exhausts its block's subtrees
// with the same depth-first enumeration the sequential path uses. The blocks
// are fixed up front — no work stealing, no shared queue — so the only
// cross-worker traffic is one atomic stop flag and the final node tallies.
//
// Block (rather than round-robin) assignment is deliberate: it starts the
// workers at evenly spaced points of the DFS leaf order, so a counterexample
// that sequential enumeration would only reach after grinding most of the
// tree — swaps needing Greater signs live in the subtrees DFS visits last —
// is near the start of SOME worker's block. With cancel-on-first-witness,
// the whole pool then stops after a fraction of the sequential node count:
// refuted-heavy workloads speed up even without spare cores, and implied
// questions (which must exhaust the tree either way) still split the nodes
// evenly enough across real cores.

// maxWorkers caps the pool; beyond this the prefix blocks get too small to
// amortize goroutine startup against.
const maxWorkers = 64

// parallelMinAttrs is the universe size below which the search stays
// sequential: 3^7 ≈ 2k nodes finish faster than goroutines launch.
const parallelMinAttrs = 8

// stopCheckMask throttles stop-flag and context polls to every 1024 visited
// nodes — frequent enough that cancellation lands in microseconds, rare
// enough that the hot loop stays branch-predictable.
const stopCheckMask = 1<<10 - 1

// searchState is one enumeration's mutable state: the sequential search owns
// exactly one, each parallel worker owns its own with a shared stop flag.
type searchState struct {
	ctx     context.Context
	stop    *atomic.Bool // pool-wide abort; nil for sequential searches
	cods    []Compiled
	target  Compiled
	nodes   uint64
	err     error // context error when the abort came from cancellation
	aborted bool
}

// checkAbort polls the stop flag and the context; it reports whether the
// enumeration should unwind.
func (s *searchState) checkAbort() bool {
	if s.stop != nil && s.stop.Load() {
		s.aborted = true
		return true
	}
	if err := s.ctx.Err(); err != nil {
		s.err = err
		s.aborted = true
		return true
	}
	return false
}

// search enumerates sign assignments depth-first over signs[k:]. seenLess
// records whether a non-Equal sign has been placed yet; the first one is
// fixed to Less, exploiting negation invariance. It returns true when the
// current assignment (completed in signs) satisfies every OD in s.cods while
// falsifying s.target. A true return with s.aborted set means the result is
// void — the enumeration was cut short.
func (s *searchState) search(signs []core.Sign, k int, seenLess bool) bool {
	if s.aborted {
		return false
	}
	s.nodes++
	if s.nodes&stopCheckMask == 0 && s.checkAbort() {
		return false
	}
	if k == len(signs) {
		if s.target.holds(signs) {
			return false
		}
		for _, c := range s.cods {
			if !c.holds(signs) {
				return false
			}
		}
		return true
	}
	signs[k] = core.Equal
	if s.search(signs, k+1, seenLess) {
		return true
	}
	signs[k] = core.Less
	if s.search(signs, k+1, true) {
		return true
	}
	if seenLess {
		signs[k] = core.Greater
		if s.search(signs, k+1, true) {
			return true
		}
	}
	signs[k] = core.Equal
	return false
}

// runSearch finds a pattern over pat's universe satisfying every OD of cods
// while falsifying target, or reports that none exists. It dispatches to the
// parallel pool when the prover is configured for one and the universe is
// large enough to pay for it. The returned node count covers all workers.
func (p *Prover) runSearch(ctx context.Context, pat *core.Pattern, cods []Compiled, target Compiled) (*core.Pattern, uint64, error) {
	if p.workers > 1 && len(pat.Signs()) >= parallelMinAttrs {
		return p.searchParallel(ctx, pat, cods, target)
	}
	found, nodes, err := searchSequential(ctx, pat.Signs(), cods, target)
	if !found {
		pat = nil
	}
	return pat, nodes, err
}

// searchSequential is the single-goroutine enumeration. On success the
// counterexample is left in signs.
func searchSequential(ctx context.Context, signs []core.Sign, cods []Compiled, target Compiled) (bool, uint64, error) {
	s := &searchState{ctx: ctx, cods: cods, target: target}
	found := s.search(signs, 0, false)
	return found, s.nodes, s.err
}

// Counterexample runs the sign-pattern search alone: it returns a pattern
// over universe that satisfies every OD of m while falsifying target, or nil
// when none exists (m ⊨ target). Term indexes refer to universe positions.
//
// Unlike Prover, it takes no FD split shortcut and does no lazy widening,
// since both apply only to ascending lists (see the package doc). The caller
// bounds the universe; the search is exponential in its size.
func Counterexample(ctx context.Context, universe core.List, m []Compiled, target Compiled) (*core.Pattern, error) {
	signs := make([]core.Sign, len(universe))
	found, _, err := searchSequential(ctx, signs, m, target)
	if !found {
		return nil, err
	}
	w, err := core.NewPattern(universe)
	if err != nil {
		return nil, err
	}
	copy(w.Signs(), signs)
	return w, nil
}

// prefixAssign is one subtree root: the first depth signs plus whether a
// Less has been placed among them (which decides Greater-eligibility below).
type prefixAssign struct {
	signs    []core.Sign
	seenLess bool
}

// enumeratePrefixes lists, in DFS order, every valid assignment of the first
// depth sign positions, choosing the smallest depth whose prefix count gives
// each of the workers a handful of subtrees. Validity mirrors the search's
// halving rule: Greater appears only after a Less.
func enumeratePrefixes(n, workers int) []prefixAssign {
	// Prefix counts follow f(d) = noLess(d) + withLess(d) with
	// noLess(d+1) = noLess(d) (the Equal child) and
	// withLess(d+1) = noLess(d) + 3*withLess(d): 2, 5, 14, 41, 122, ...
	target := workers * 8
	depth, noLess, withLess := 0, 1, 0
	for depth < n && depth < 7 && noLess+withLess < target {
		withLess = noLess + 3*withLess // noLess stays 1: only the all-Equal prefix
		depth++
	}
	var out []prefixAssign
	var emit func(prefix []core.Sign, k int, seenLess bool)
	emit = func(prefix []core.Sign, k int, seenLess bool) {
		if k == depth {
			out = append(out, prefixAssign{signs: append([]core.Sign(nil), prefix...), seenLess: seenLess})
			return
		}
		prefix[k] = core.Equal
		emit(prefix, k+1, seenLess)
		prefix[k] = core.Less
		emit(prefix, k+1, true)
		if seenLess {
			prefix[k] = core.Greater
			emit(prefix, k+1, true)
		}
		prefix[k] = core.Equal
	}
	emit(make([]core.Sign, depth), 0, false)
	return out
}

// blockOf returns block i of the DFS-ordered prefix list cut into parts
// contiguous blocks.
func blockOf(prefixes []prefixAssign, i, parts int) []prefixAssign {
	return prefixes[i*len(prefixes)/parts : (i+1)*len(prefixes)/parts]
}

// searchBlock exhausts the subtrees under each prefix of block in DFS order
// and reports whether it found a counterexample, which it leaves in signs.
func (s *searchState) searchBlock(signs []core.Sign, block []prefixAssign) bool {
	for _, pre := range block {
		copy(signs, pre.signs)
		if s.search(signs, len(pre.signs), pre.seenLess) {
			return !s.aborted
		}
		if s.aborted {
			return false
		}
	}
	return false
}

// searchParallel fans the enumeration out across prefix blocks. One block
// always runs inline on the caller's goroutine; the rest go to spawned
// workers — all of them when the prover is unpooled, however many the
// shared Pool grants without blocking otherwise. The first worker to hit a
// counterexample publishes it and raises the stop flag; everyone else
// unwinds within one poll interval. Context cancellation stops the pool the
// same way, surfacing the context's error.
func (p *Prover) searchParallel(ctx context.Context, pat *core.Pattern, cods []Compiled, target Compiled) (*core.Pattern, uint64, error) {
	prefixes := enumeratePrefixes(len(pat.Signs()), p.workers)
	want := p.workers
	if want > len(prefixes) {
		want = len(prefixes)
	}
	extra := want - 1
	if p.pool != nil {
		extra = p.pool.tryAcquire(extra)
		defer p.pool.release(extra)
	}
	parts := extra + 1

	var (
		stop       atomic.Bool
		totalNodes atomic.Uint64
		mu         sync.Mutex
		found      *core.Pattern
		ctxErr     error
		wg         sync.WaitGroup
	)
	runBlock := func(block []prefixAssign) {
		wpat := core.MustPattern(pat.Universe())
		s := &searchState{ctx: ctx, cods: cods, target: target}
		if parts > 1 {
			s.stop = &stop
		}
		if s.searchBlock(wpat.Signs(), block) {
			mu.Lock()
			if found == nil {
				found = wpat
			}
			mu.Unlock()
			stop.Store(true)
		}
		totalNodes.Add(s.nodes)
		if s.err != nil {
			mu.Lock()
			if ctxErr == nil {
				ctxErr = s.err
			}
			mu.Unlock()
		}
	}
	for i := 0; i < parts-1; i++ {
		block := blockOf(prefixes, i, parts)
		if len(block) == 0 {
			continue
		}
		wg.Add(1)
		go func(block []prefixAssign) {
			defer wg.Done()
			runBlock(block)
		}(block)
	}
	// The caller — the one participant guaranteed to be running even on a
	// saturated or single-core machine — takes the LAST block: the Greater-
	// heavy subtrees DFS visits last are where deep refutations concentrate,
	// so the inline share of the work is the share most likely to cancel
	// everyone else early.
	runBlock(blockOf(prefixes, parts-1, parts))
	wg.Wait()
	switch {
	case found != nil:
		return found, totalNodes.Load(), nil
	case ctxErr != nil:
		return nil, totalNodes.Load(), ctxErr
	default:
		return nil, totalNodes.Load(), nil
	}
}
