package query

import (
	"errors"
	"fmt"
	"math/big"
	"sort"
	"strings"

	"repro/internal/pxml"
	"repro/internal/worlds"
)

// ErrNotExact is returned when the exact evaluator cannot handle the
// query/document combination within its limits; callers should fall back
// to Enumerate or Sample.
var ErrNotExact = errors.New("query: exact evaluation not applicable")

// DefaultLocalWorldLimit bounds the possible worlds enumerated inside one
// anchor subtree by the exact evaluator.
const DefaultLocalWorldLimit = 100000

// EvalExact computes exact answer probabilities by compositional
// propagation over the layered tree.
//
// The algorithm picks an "anchor" step: the highest step carrying
// predicates (or the result step if none). Above the anchor, probabilities
// compose freely: alternatives of a choice point are mutually exclusive
// (probabilities add) and sibling choice points are independent (failure
// probabilities multiply). At an anchor match the evaluator switches to
// exhaustive local enumeration of that element's subtree, which captures
// every correlation between predicate events and answer values — at a cost
// bounded by localLimit possible worlds per anchor subtree (ErrNotExact
// beyond that).
func EvalExact(t *pxml.Tree, q *Query, localLimit int) ([]Answer, error) {
	if localLimit <= 0 {
		localLimit = DefaultLocalWorldLimit
	}
	if len(q.Steps) == 0 {
		return nil, fmt.Errorf("%w: empty query", ErrNotExact)
	}
	if q.Steps[0].IsText {
		return nil, fmt.Errorf("%w: text() cannot be the first step", ErrNotExact)
	}
	e := &exactEval{
		q:          q,
		anchorIdx:  anchorIndex(q),
		localLimit: localLimit,
		localMemo:  make(map[localKey]map[string]float64),
		failMemo:   make(map[failKey]float64),
	}
	// Pass 1: discover all candidate answer values.
	values := make(map[string]bool)
	if err := e.collectValues(t.Root(), stateSet(1), values); err != nil {
		return nil, err
	}
	// Pass 2: per value, compute 1 − P(no such answer).
	answers := make([]Answer, 0, len(values))
	for v := range values {
		fail, err := e.fail(t.Root(), stateSet(1), v)
		if err != nil {
			return nil, err
		}
		if p := 1 - fail; p > 1e-12 {
			answers = append(answers, Answer{Value: v, P: p})
		}
	}
	sortAnswers(answers)
	return answers, nil
}

// anchorIndex returns the index of the highest predicated step, or the
// last element step when no step has predicates.
func anchorIndex(q *Query) int {
	for i, s := range q.Steps {
		if len(s.Preds) > 0 {
			return i
		}
	}
	last := len(q.Steps) - 1
	if q.Steps[last].IsText && last > 0 {
		return last - 1
	}
	return last
}

type localKey struct {
	e *pxml.Node
	s stateSet
}

type failKey struct {
	n *pxml.Node
	s stateSet
	v string
}

type exactEval struct {
	q          *Query
	anchorIdx  int
	localLimit int
	localMemo  map[localKey]map[string]float64
	failMemo   map[failKey]float64

	// Planned-mode accelerators (nil in the legacy two-pass evaluator).
	//
	// valueSets records, per (node, state set), the set of answer values
	// the subtree can produce; the per-value failure pass then skips
	// value-free subtrees in O(1) instead of re-walking them, which turns
	// the O(values × nodes) second pass into O(nodes + values × depth) on
	// selective documents. Mathematically the skipped subtree's failure
	// probability is exactly 1, so short-circuiting only removes
	// accumulated floating-point dust from Σpᵢ≈1 sums.
	valueSets map[localKey]map[string]bool
	// need[i] is what a subtree must contain for the step chain i..last
	// to complete inside it (required tags and a Bloom mask of required
	// equality literals); subtrees that cannot satisfy any pending chain
	// are pruned without a visit.
	need []stepNeed
	// visited/prunedSubtrees count discovery-pass work for plan stats.
	visited        int
	prunedSubtrees int

	// budget meters node visits and enumerated worlds and carries
	// cancellation; nil in the legacy evaluator.
	budget *budget
}

// advance computes the transition of the global NFA at an element: the
// next state set for its children and whether the element hits the anchor
// step (which switches evaluation to local enumeration).
func (e *exactEval) advance(elem *pxml.Node, states stateSet) (next stateSet, anchorHit bool) {
	for i := 0; i <= e.anchorIdx; i++ {
		if !states.has(i) {
			continue
		}
		step := e.q.Steps[i]
		if step.Desc {
			next = next.add(i)
		}
		// Above the anchor, steps carry no predicates by construction, so
		// a name match suffices.
		if !stepMatches(step, elem) {
			continue
		}
		if i == e.anchorIdx {
			anchorHit = true
			continue
		}
		next = next.add(i + 1)
	}
	return next, anchorHit
}

// localEval enumerates the possible worlds of one anchor element's subtree
// and returns, per answer value, the probability that the remaining query
// (from the given state set) produces that value — conditioned on the
// element existing.
func (e *exactEval) localEval(elem *pxml.Node, states stateSet) (map[string]float64, error) {
	key := localKey{e: elem, s: states}
	if m, ok := e.localMemo[key]; ok {
		return m, nil
	}
	sub := pxml.CertainTree(elem)
	wc := sub.WorldCount()
	if !wc.IsInt64() || wc.Cmp(big.NewInt(int64(e.localLimit))) > 0 {
		return nil, fmt.Errorf("%w: anchor subtree <%s> has %s local worlds (limit %d)",
			ErrNotExact, elem.Tag(), wc.String(), e.localLimit)
	}
	out := make(map[string]float64)
	var stepErr error
	worlds.Enumerate(sub, func(w worlds.World) bool {
		if stepErr = e.budget.step(); stepErr != nil {
			return false
		}
		seen := make(map[string]bool)
		for _, el := range w.Elements {
			evalFrom(e.q, el, states, func(v string) { seen[v] = true })
		}
		for v := range seen {
			out[v] += w.P
		}
		return true
	})
	if stepErr != nil {
		return nil, stepErr
	}
	e.localMemo[key] = out
	return out, nil
}

// collectValues gathers every value any anchor subtree can produce.
func (e *exactEval) collectValues(n *pxml.Node, states stateSet, acc map[string]bool) error {
	switch n.Kind() {
	case pxml.KindProb, pxml.KindPoss:
		for _, k := range n.Children() {
			if err := e.collectValues(k, states, acc); err != nil {
				return err
			}
		}
		return nil
	default: // element
		next, hit := e.advance(n, states)
		if hit {
			m, err := e.localEval(n, states)
			if err != nil {
				return err
			}
			for v := range m {
				acc[v] = true
			}
			return nil
		}
		if next == 0 {
			return nil
		}
		for _, k := range n.Children() {
			if err := e.collectValues(k, next, acc); err != nil {
				return err
			}
		}
		return nil
	}
}

// stepNeed is the static requirement the chain from one step to the last
// imposes on any subtree completing it.
type stepNeed struct {
	// tags are the concrete element tags of steps i..last: any complete
	// match starting at step i assigns every later step to an element
	// inside the same subtree, so a subtree lacking one of the tags
	// cannot contribute an answer through state i.
	tags map[string]bool
	// litMask is the combined Bloom mask of all positively required
	// equality literals (conjoined [path = "lit"] predicates with
	// space-free literals) of steps i..last. A space-free literal can
	// only match as a single element's own text, so a subtree whose
	// summary TextBloom misses any of these bits cannot satisfy the
	// predicates and contributes exactly nothing.
	litMask uint64
}

// stepNeeds computes the per-step chain requirements, shared backwards:
// need[i] accumulates tags and literal masks of steps i..last.
func stepNeeds(q *Query) []stepNeed {
	need := make([]stepNeed, len(q.Steps))
	var tags map[string]bool
	var mask uint64
	for i := len(q.Steps) - 1; i >= 0; i-- {
		s := q.Steps[i]
		lits := requiredEqLiterals(s)
		if !s.IsText && s.Name != "*" || len(lits) > 0 {
			m := make(map[string]bool, len(tags)+1)
			for t := range tags {
				m[t] = true
			}
			if !s.IsText && s.Name != "*" {
				m[s.Name] = true
			}
			tags = m
			for _, lit := range lits {
				mask |= pxml.TextBloomBits(lit)
			}
		}
		if tags == nil {
			tags = map[string]bool{}
		}
		need[i] = stepNeed{tags: tags, litMask: mask}
	}
	return need
}

// requiredEqLiterals collects the space-free equality literals a step's
// predicates positively require: conjuncts of the form [path = "lit"].
// Literals under not(…) or or(…) are not required and contribute nothing.
func requiredEqLiterals(s Step) []string {
	var out []string
	var rec func(p Pred)
	rec = func(p Pred) {
		switch p := p.(type) {
		case PredExists:
			if eq, ok := p.Cond.(CondEq); ok && eq.Lit != "" && !strings.ContainsRune(eq.Lit, ' ') {
				out = append(out, eq.Lit)
			}
		case PredAnd:
			rec(p.A)
			rec(p.B)
		}
	}
	for _, p := range s.Preds {
		rec(p)
	}
	return out
}

// canMatch reports whether the subtree of n can possibly complete any
// pending step chain, judged by its cached summary (tag set and text
// fingerprint). Always true in legacy mode (no needs computed).
func (e *exactEval) canMatch(n *pxml.Node, states stateSet) bool {
	if e.need == nil {
		return true
	}
	sum := n.Summary()
	for i := 0; i <= e.anchorIdx; i++ {
		if !states.has(i) {
			continue
		}
		nd := e.need[i]
		if sum.TextBloom&nd.litMask != nd.litMask {
			continue
		}
		ok := true
		for t := range nd.tags {
			if !sum.Tags.Has(t) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// values is the planned-mode discovery pass: it returns the set of answer
// values the subtree of n can produce given the pending states, memoized
// per (node, state set) so the failure pass can consult it in O(1). A nil
// set means "no values".
func (e *exactEval) values(n *pxml.Node, states stateSet) (map[string]bool, error) {
	if states == 0 {
		return nil, nil
	}
	key := localKey{e: n, s: states}
	if vs, ok := e.valueSets[key]; ok {
		return vs, nil
	}
	e.visited++
	if err := e.budget.step(); err != nil {
		return nil, err
	}
	if !e.canMatch(n, states) {
		e.prunedSubtrees++
		e.valueSets[key] = nil
		return nil, nil
	}
	var vs map[string]bool
	merge := func(kvs map[string]bool) {
		if len(kvs) == 0 {
			return
		}
		if vs == nil {
			// Share the child's set until a second contributor forces a
			// private union — chains of wrapper nodes then share one set.
			vs = kvs
			return
		}
		if mapsShareStorage(vs, kvs) {
			return
		}
		merged := make(map[string]bool, len(vs)+len(kvs))
		for v := range vs {
			merged[v] = true
		}
		for v := range kvs {
			merged[v] = true
		}
		vs = merged
	}
	switch n.Kind() {
	case pxml.KindProb, pxml.KindPoss:
		for _, k := range n.Children() {
			kvs, err := e.values(k, states)
			if err != nil {
				return nil, err
			}
			merge(kvs)
		}
	default: // element
		next, hit := e.advance(n, states)
		if hit {
			m, err := e.localEval(n, states)
			if err != nil {
				return nil, err
			}
			if len(m) > 0 {
				vs = make(map[string]bool, len(m))
				for v := range m {
					vs[v] = true
				}
			}
		} else if next != 0 {
			for _, k := range n.Children() {
				kvs, err := e.values(k, next)
				if err != nil {
					return nil, err
				}
				merge(kvs)
			}
		}
	}
	e.valueSets[key] = vs
	return vs, nil
}

// mapsShareStorage reports whether b adds nothing to a because the two
// sets are the same size and b ⊆ a (the common shared-child case).
func mapsShareStorage(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range b {
		if !a[v] {
			return false
		}
	}
	return true
}

// fail returns P(no answer with value v arises in the subtree of n), given
// the NFA state set at n, memoized in failMemo.
func (e *exactEval) fail(n *pxml.Node, states stateSet, v string) (float64, error) {
	if states == 0 {
		return 1, nil
	}
	if e.valueSets != nil {
		// Planned mode: the discovery pass has already recorded which
		// values this subtree can produce; a subtree that cannot produce
		// v fails with probability exactly 1.
		if vs, ok := e.valueSets[localKey{e: n, s: states}]; ok && !vs[v] {
			return 1, nil
		}
	}
	key := failKey{n: n, s: states, v: v}
	if f, ok := e.failMemo[key]; ok {
		return f, nil
	}
	if err := e.budget.step(); err != nil {
		return 0, err
	}
	var f float64
	var err error
	switch n.Kind() {
	case pxml.KindProb:
		// Alternatives are mutually exclusive: failure probabilities add,
		// weighted.
		f = 0
		for _, poss := range n.Children() {
			pf, perr := e.fail(poss, states, v)
			if perr != nil {
				return 0, perr
			}
			f += poss.Prob() * pf
		}
	case pxml.KindPoss:
		// Contents are independent: failures multiply.
		f = 1
		for _, el := range n.Children() {
			ef, eerr := e.fail(el, states, v)
			if eerr != nil {
				return 0, eerr
			}
			f *= ef
			if f == 0 {
				break
			}
		}
	default: // element
		next, hit := e.advance(n, states)
		if hit {
			var m map[string]float64
			m, err = e.localEval(n, states)
			if err != nil {
				return 0, err
			}
			f = 1 - m[v]
		} else {
			f = 1
			for _, k := range n.Children() {
				kf, kerr := e.fail(k, next, v)
				if kerr != nil {
					return 0, kerr
				}
				f *= kf
				if f == 0 {
					break
				}
			}
		}
	}
	e.failMemo[key] = f
	return f, nil
}

// evalExactPlanned is the planner's exact executor: the same compositional
// semantics as EvalExact, restructured around a single value-discovery
// pass that memoizes per-subtree value sets (plus summary-based tag
// pruning), so the per-value failure pass touches only subtrees that can
// actually produce the value. It returns the evaluator alongside the
// answers so the planner can report pruning statistics.
func evalExactPlanned(t *pxml.Tree, q *Query, localLimit int, b *budget) ([]Answer, *exactEval, error) {
	if localLimit <= 0 {
		localLimit = DefaultLocalWorldLimit
	}
	if len(q.Steps) == 0 {
		return nil, nil, fmt.Errorf("%w: empty query", ErrNotExact)
	}
	if q.Steps[0].IsText {
		return nil, nil, fmt.Errorf("%w: text() cannot be the first step", ErrNotExact)
	}
	e := &exactEval{
		q:          q,
		anchorIdx:  anchorIndex(q),
		localLimit: localLimit,
		localMemo:  make(map[localKey]map[string]float64),
		valueSets:  make(map[localKey]map[string]bool),
		need:       stepNeeds(q),
		budget:     b,
	}
	values, err := e.values(t.Root(), stateSet(1))
	if err != nil {
		return nil, e, err
	}
	vals := make([]string, 0, len(values))
	for v := range values {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	answers := make([]Answer, 0, len(vals))
	for _, v := range vals {
		// Failure entries are keyed per value, so a fresh memo per value
		// computes the same floats as a shared one while holding only
		// one value's entries at a time.
		e.failMemo = make(map[failKey]float64)
		f, err := e.fail(t.Root(), stateSet(1), v)
		if err != nil {
			return nil, e, err
		}
		if p := 1 - f; p > 1e-12 {
			answers = append(answers, Answer{Value: v, P: p})
		}
	}
	sortAnswers(answers)
	return answers, e, nil
}

func sortAnswers(answers []Answer) {
	sort.Slice(answers, func(i, j int) bool {
		if answers[i].P != answers[j].P {
			return answers[i].P > answers[j].P
		}
		return answers[i].Value < answers[j].Value
	})
}
