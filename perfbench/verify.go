package main

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"odlib/internal/core"
	"odlib/internal/prover"
)

// proveKey identifies an answer: a statement at a constraint generation.
// Every op asking the same statement at the same generation must get the
// same answer, so the log keeps one observation per key and counts repeats.
type proveKey struct {
	stmt string
	gen  uint64
}

type proveObs struct {
	q       question
	schema  string
	implied bool
	witness *witnessJSON
	n       int // ops that asked q at this generation
	bad     int // of those, ops whose answer differed from the first
}

type proveLog map[proveKey]*proveObs

func (o *proveObs) same(schema string, implied bool, w *witnessJSON) bool {
	return o.schema == schema && o.implied == implied && (o.witness == nil) == (w == nil)
}

func (l proveLog) add(q question, rep proveReply) {
	k := proveKey{q.key, rep.Generation}
	if o := l[k]; o != nil {
		o.n++
		if !o.same(rep.Schema, rep.Implied, rep.Witness) {
			o.bad++
		}
		return
	}
	l[k] = &proveObs{q: q, schema: rep.Schema, implied: rep.Implied, witness: rep.Witness, n: 1}
}

func (l proveLog) merge(other proveLog) {
	for k, o := range other {
		mine := l[k]
		switch {
		case mine == nil:
			l[k] = o
		case mine.same(o.schema, o.implied, o.witness):
			mine.n += o.n
			mine.bad += o.bad
		default:
			mine.n += o.n
			mine.bad += o.n
		}
	}
}

func (l proveLog) distinct() int {
	seen := map[string]bool{}
	for k := range l {
		seen[k.stmt] = true
	}
	return len(seen)
}

// oracle decides questions independently of the stack under test: a
// standalone prover per declared-set state, built on first use.
type oracle struct {
	sets    map[string][]core.OD
	provers map[string]*prover.Prover
	byAttr  map[string]map[core.Attribute][]core.OD
}

func newOracle() *oracle {
	return &oracle{
		sets:    map[string][]core.OD{},
		provers: map[string]*prover.Prover{},
		byAttr:  map[string]map[core.Attribute][]core.OD{},
	}
}

func (o *oracle) addState(key string, declared []core.OD) { o.sets[key] = declared }

// check returns "" when the observed answer is right for state: the verdict
// matches a standalone prover over the state's declared set, and a
// refutation carries a witness that falsifies the question while satisfying
// every declared OD.
func (o *oracle) check(state string, ob *proveObs) string {
	decl, ok := o.sets[state]
	if !ok {
		return fmt.Sprintf("no declared set for state %q", state)
	}
	p := o.provers[state]
	if p == nil {
		p = prover.New(decl)
		o.provers[state] = p
		idx := map[core.Attribute][]core.OD{}
		for _, od := range decl {
			for a := range od.Attrs() {
				idx[a] = append(idx[a], od)
			}
		}
		o.byAttr[state] = idx
	}
	v, err := p.DecideCtx(context.Background(), ob.q.od)
	if err != nil {
		return fmt.Sprintf("standalone prover: %v", err)
	}
	if v.Implied != ob.implied {
		return fmt.Sprintf("%s: stack says implied=%v, standalone prover %v", ob.q.key, ob.implied, v.Implied)
	}
	if ob.implied {
		return ""
	}
	if ob.witness == nil {
		return fmt.Sprintf("%s: refuted without a witness", ob.q.key)
	}
	return checkWitness(ob.witness, ob.q.od, o.byAttr[state])
}

// checkWitness realizes the witness's two rows over the question's
// attributes and those of every declared OD sharing an attribute with it
// (attributes the witness omits tie), then checks the rows violate the
// question and satisfy those declared ODs. Declared ODs sharing no attribute
// with the witness see two equal rows and hold trivially.
func checkWitness(w *witnessJSON, q core.OD, byAttr map[core.Attribute][]core.OD) string {
	if len(w.Rows) != 2 || len(w.Rows[0]) != len(w.Attrs) || len(w.Rows[1]) != len(w.Attrs) {
		return fmt.Sprintf("%s: malformed witness %+v", q, *w)
	}
	vals := map[core.Attribute][2]int64{}
	var touched []core.OD
	for i, a := range w.Attrs {
		attr := core.Attribute(a)
		vals[attr] = [2]int64{w.Rows[0][i], w.Rows[1][i]}
		touched = append(touched, byAttr[attr]...)
	}
	universe := core.AttrsOf(append([]core.OD{q}, touched...))
	for a := range vals {
		universe.Add(a)
	}
	attrs := make(core.List, 0, len(universe))
	for a := range universe {
		attrs = append(attrs, a)
	}
	rel, err := core.NewRelation(attrs)
	if err != nil {
		return err.Error()
	}
	for row := 0; row < 2; row++ {
		cells := make([]int64, len(attrs))
		for i, a := range attrs {
			cells[i] = vals[a][row]
		}
		if err := rel.AddIntRow(cells...); err != nil {
			return err.Error()
		}
	}
	if ok, _, err := rel.Satisfies(q); err != nil || ok {
		return fmt.Sprintf("%s: witness does not falsify the question (err %v)", q, err)
	}
	for _, od := range touched {
		if ok, _, err := rel.Satisfies(od); err != nil || !ok {
			return fmt.Sprintf("%s: witness violates declared %s (err %v)", q, od, err)
		}
	}
	return ""
}

// checkProves checks every logged answer. stateOf names the declared-set
// state the answer's generation corresponds to, or false when no
// acknowledged state has that generation. Wrong answers count every op that
// received them.
func checkProves(r *report, l proveLog, stateOf func(q question, gen uint64) (string, bool), o *oracle) {
	keys := make([]proveKey, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].gen != keys[j].gen {
			return keys[i].gen < keys[j].gen
		}
		return keys[i].stmt < keys[j].stmt
	})
	for _, k := range keys {
		ob := l[k]
		r.fail(ob.bad, "%s at generation %d: answers disagree", k.stmt, k.gen)
		state, ok := stateOf(ob.q, k.gen)
		switch {
		case !ok:
			r.fail(ob.n-ob.bad, "%s: generation %d names no acknowledged state", k.stmt, k.gen)
		case ob.schema != ob.q.shard:
			r.fail(ob.n-ob.bad, "%s: routed to shard %q, want %q", k.stmt, ob.schema, ob.q.shard)
		default:
			if msg := o.check(state, ob); msg != "" {
				r.fail(ob.n-ob.bad, "generation %d: %s", k.gen, msg)
			}
		}
	}
}

// mutObs is one acknowledged mutation.
type mutObs struct {
	link   linkID
	remove bool
	rep    mutationReply
}

// churnModel rebuilds the declared set at every generation from the log of
// acknowledged mutations, in WAL order.
type churnModel struct {
	in     *churnInputs
	g0     uint64
	states map[uint64]string // generation → state key (the cut links)
	cut    map[linkID]bool
	oracle *oracle
}

func newChurnModel(in *churnInputs, g0 uint64) *churnModel {
	m := &churnModel{in: in, g0: g0, states: map[uint64]string{}, cut: map[linkID]bool{}, oracle: newOracle()}
	m.record(g0)
	return m
}

// record names the current cut set and registers its declared set.
func (m *churnModel) record(gen uint64) {
	var parts []string
	for l := range m.cut {
		parts = append(parts, fmt.Sprintf("%d.%d", l.chain, l.pos))
	}
	sort.Strings(parts)
	key := "cut:" + strings.Join(parts, ",")
	m.states[gen] = key
	if _, ok := m.oracle.sets[key]; !ok {
		m.oracle.addState(key, m.final())
	}
}

// apply replays the acknowledged mutations in sequence order. Each must be
// effective and advance the generation by exactly one, or the model and the
// stack disagree and the mutation counts as failed.
func (m *churnModel) apply(r *report, muts []mutObs) {
	sort.Slice(muts, func(i, j int) bool { return muts[i].rep.Seq < muts[j].rep.Seq })
	gen := m.g0
	for _, mu := range muts {
		want := mutationReply{Schema: churnShard, Generation: gen + 1, Seq: mu.rep.Seq}
		if mu.remove {
			want.Removed = 1
		} else {
			want.Added = 1
		}
		if mu.rep != want {
			r.fail(1, "mutation %+v acknowledged %+v, want %+v", mu.link, mu.rep, want)
		}
		gen = mu.rep.Generation
		m.toggle(mu.link, mu.remove)
		m.record(gen)
	}
}

// toggle cuts link out of the declared set, or restores it.
func (m *churnModel) toggle(link linkID, remove bool) {
	if remove {
		m.cut[link] = true
	} else {
		delete(m.cut, link)
	}
}

// verifyChurn checks a churn log against the model of its acknowledged
// mutations and returns the model.
func verifyChurn(r *report, in *churnInputs, g0 uint64, l *opLog) *churnModel {
	m := newChurnModel(in, g0)
	m.apply(r, l.muts)
	checkProves(r, l.proves, m.stateAt, m.oracle)
	return m
}

func (m *churnModel) stateAt(_ question, gen uint64) (string, bool) {
	s, ok := m.states[gen]
	return s, ok
}

// final is the declared set of the current cut state.
func (m *churnModel) final() []core.OD {
	var out []core.OD
	for c, links := range m.in.links {
		for p, od := range links {
			if !m.cut[linkID{c, p}] {
				out = append(out, od)
			}
		}
	}
	return out
}
