package query

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/pxml"
	"repro/internal/queryindex"
	"repro/internal/worlds"
)

// Plan explains how the engine decided to evaluate a query: the chosen
// strategy, the cost estimates it was based on, and how much of the
// document the index let the planner rule out. It is attached to every
// Result produced by EvalIndexed and surfaced by the `explain=1` query
// parameter.
type Plan struct {
	// Method is the strategy the planner chose (and the executor ran —
	// the engine guarantees the two agree).
	Method Method `json:"method"`
	// Indexed reports whether a per-tree index informed the plan.
	Indexed bool `json:"indexed"`
	// Reason is a human-readable account of the choice.
	Reason string `json:"reason"`
	// EstimatedWorlds is the document's possible-world count.
	EstimatedWorlds string `json:"estimated_worlds"`
	// AnchorTag is the tag of the query's anchor step ("*" for wildcard).
	AnchorTag string `json:"anchor_tag,omitempty"`
	// AnchorWorldBound is the planner's upper bound on any anchor
	// subtree's local world count (empty without an index).
	AnchorWorldBound string `json:"anchor_world_bound,omitempty"`
	// PrunedFraction estimates the fraction of document elements the
	// evaluation never has to visit (from index tag occurrences).
	PrunedFraction float64 `json:"pruned_fraction"`
	// EmptyByIndex is set when the index proved the result empty (a
	// required tag does not occur in the document) and evaluation was
	// skipped entirely.
	EmptyByIndex bool `json:"empty_by_index,omitempty"`
	// CacheHit is set by the database layer when the result was served
	// from the result cache.
	CacheHit bool `json:"cache_hit"`
	// BudgetExhausted is set when evaluation aborted on a per-query
	// budget (Options.TimeBudget / Options.MaxNodeVisits); the result
	// carrying it is partial and arrives alongside ErrBudgetExhausted.
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
}

// queryTags collects the concrete element tags a query mentions: step
// names plus predicate path names. Wildcards and text() contribute
// nothing. The bool reports whether a wildcard step occurs.
func queryTags(q *Query) (map[string]bool, bool) {
	tags := make(map[string]bool)
	wildcard := false
	var addSteps func(steps []Step)
	var addPred func(p Pred)
	addSteps = func(steps []Step) {
		for _, s := range steps {
			if s.IsText {
				continue
			}
			if s.Name == "*" {
				wildcard = true
			} else {
				tags[s.Name] = true
			}
			for _, p := range s.Preds {
				addPred(p)
			}
		}
	}
	addPred = func(p Pred) {
		switch p := p.(type) {
		case PredExists:
			addSteps(p.Path.Steps)
		case PredAnd:
			addPred(p.A)
			addPred(p.B)
		case PredOr:
			addPred(p.A)
			addPred(p.B)
		case PredNot:
			addPred(p.P)
		}
	}
	addSteps(q.Steps)
	return tags, wildcard
}

// requiredStepTags returns the concrete tags of the main step chain only —
// each must occur in the document for the query to have any answer.
func requiredStepTags(q *Query) []string {
	var out []string
	for _, s := range q.Steps {
		if !s.IsText && s.Name != "*" {
			out = append(out, s.Name)
		}
	}
	return out
}

// planAuto builds the cost-based plan for MethodAuto over an indexed
// document. The choice is a prediction, not a trial run: the anchor world
// bound is a true upper bound (max subtree world count over all elements
// of the anchor tag), so a predicted exact evaluation cannot fail its
// local-enumeration budget at runtime.
func planAuto(t *pxml.Tree, q *Query, opts Options, idx *queryindex.Index) Plan {
	pl := Plan{
		Method:          MethodAuto,
		Indexed:         idx != nil,
		EstimatedWorlds: t.Summary().Worlds.String(),
	}
	localLimit := opts.LocalWorldLimit
	if localLimit <= 0 {
		localLimit = DefaultLocalWorldLimit
	}
	exactable := len(q.Steps) > 0 && !q.Steps[0].IsText
	anchorTag := ""
	if exactable {
		s := q.Steps[anchorIndex(q)]
		anchorTag = s.Name
		pl.AnchorTag = anchorTag
	}

	if idx == nil {
		pl.Reason = "no index: try exact, fall back to enumeration or sampling"
		return pl
	}

	// Index-proven empty result: a concrete step tag absent from the
	// document means no possible world can produce an answer.
	for _, tag := range requiredStepTags(q) {
		if !idx.HasTag(tag) {
			pl.EmptyByIndex = true
			pl.PrunedFraction = 1
			if exactable {
				pl.Method = MethodExact
			} else if idx.Worlds().Cmp(big.NewInt(int64(opts.enumLimit()))) <= 0 {
				pl.Method = MethodEnumerate
			} else {
				pl.Method = MethodSample
			}
			pl.Reason = fmt.Sprintf("index: tag %q does not occur in the document; result is empty", tag)
			return pl
		}
	}

	pl.PrunedFraction = estimatePruned(q, idx)

	if exactable {
		var bound *big.Int
		if anchorTag == "*" {
			bound = idx.MaxElementWorlds()
		} else if info, ok := idx.Tag(anchorTag); ok {
			bound = info.MaxSubtreeWorlds
		}
		if bound != nil {
			pl.AnchorWorldBound = bound.String()
			if bound.IsInt64() && bound.Cmp(big.NewInt(int64(localLimit))) <= 0 {
				pl.Method = MethodExact
				pl.Reason = fmt.Sprintf("anchor <%s> subtrees span at most %s local worlds (limit %d): exact",
					anchorTag, bound, localLimit)
				return pl
			}
			pl.Reason = fmt.Sprintf("anchor <%s> subtrees may span %s local worlds (limit %d): exact too costly",
				anchorTag, bound, localLimit)
		}
	} else {
		pl.Reason = "query shape rules out compositional evaluation"
	}

	enumLimit := big.NewInt(int64(opts.enumLimit()))
	if idx.Worlds().Cmp(enumLimit) <= 0 {
		pl.Method = MethodEnumerate
		pl.Reason += fmt.Sprintf("; %s worlds fit the enumeration budget %s", pl.EstimatedWorlds, enumLimit)
		return pl
	}
	pl.Method = MethodSample
	pl.Reason += fmt.Sprintf("; %s worlds exceed the enumeration budget %s: Monte-Carlo sampling",
		pl.EstimatedWorlds, enumLimit)
	return pl
}

// estimatePruned estimates, from index tag occurrences, the fraction of
// document elements evaluation can skip: elements whose tag the query
// never mentions are only ever traversed, not matched, and the
// summary-pruned executor skips whole subtrees without any matching tag
// below. Wildcard queries prune nothing.
func estimatePruned(q *Query, idx *queryindex.Index) float64 {
	tags, wildcard := queryTags(q)
	if wildcard || idx.Elements() == 0 {
		return 0
	}
	relevant := 0
	for tag := range tags {
		if info, ok := idx.Tag(tag); ok {
			relevant += info.Occurrences
		}
	}
	f := 1 - float64(relevant)/float64(idx.Elements())
	if f < 0 {
		return 0
	}
	return f
}

// EvalIndexed is the planned query engine: it chooses an evaluation
// strategy from the per-tree index (or the legacy ladder without one),
// executes exactly the chosen method, and attaches the explainable Plan
// to the result. Auto evaluation is deterministic: it returns bit-
// identical answers to explicitly requesting the method the plan names.
// An index whose digest does not match the tree is ignored, so callers
// can never be served a plan computed against a stale document.
func EvalIndexed(t *pxml.Tree, q *Query, opts Options, idx *queryindex.Index) (Result, error) {
	return EvalIndexedCtx(context.Background(), t, q, opts, idx)
}

// EvalIndexedCtx is EvalIndexed with cancellation and budgets: evaluation
// aborts with ctx.Err() when the context is canceled (checked on an
// amortized schedule inside the executors' hot loops) and with
// ErrBudgetExhausted when Options.TimeBudget or Options.MaxNodeVisits runs
// out. On a budget abort the returned Result still carries the Plan, with
// BudgetExhausted set, so `explain` can show what was attempted.
func EvalIndexedCtx(ctx context.Context, t *pxml.Tree, q *Query, opts Options, idx *queryindex.Index) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	if idx != nil && idx.Digest() != t.Digest() {
		idx = nil
	}
	b := newBudget(ctx, opts)

	if m := opts.method(); m != MethodAuto {
		pl := Plan{
			Method:          m,
			Indexed:         idx != nil,
			Reason:          fmt.Sprintf("method %q requested explicitly", m),
			EstimatedWorlds: t.Summary().Worlds.String(),
		}
		if idx != nil {
			pl.PrunedFraction = estimatePruned(q, idx)
		}
		return executePlanned(t, q, opts, m, pl, b)
	}

	pl := planAuto(t, q, opts, idx)
	if pl.EmptyByIndex {
		sampled := 0
		if pl.Method == MethodSample {
			sampled = opts.samples()
		}
		return newResult(make([]Answer, 0), pl.Method, sampled, &pl), nil
	}
	if idx == nil {
		return executeLadder(t, q, opts, pl, b)
	}
	return executePlanned(t, q, opts, pl.Method, pl, b)
}

// failedResult wraps an executor error: budget aborts keep the Plan (with
// BudgetExhausted set) attached to the empty result so front ends can
// still explain what happened; other errors return a bare Result.
func failedResult(pl Plan, m Method, err error) (Result, error) {
	if errors.Is(err, ErrBudgetExhausted) {
		pl.Method = m
		pl.BudgetExhausted = true
		return newResult(nil, m, 0, &pl), err
	}
	return Result{}, err
}

// executePlanned runs exactly the given method with the planned executor.
func executePlanned(t *pxml.Tree, q *Query, opts Options, m Method, pl Plan, b *budget) (Result, error) {
	pl.Method = m
	switch m {
	case MethodExact:
		answers, e, err := evalExactPlanned(t, q, opts.LocalWorldLimit, b)
		if err != nil {
			return failedResult(pl, m, err)
		}
		if e.visited > 0 {
			// Refine the estimate with what the discovery pass saw.
			pl.Reason += fmt.Sprintf(" (discovery pruned %d of %d subtree visits)", e.prunedSubtrees, e.visited)
		}
		res := newResult(answers, MethodExact, 0, &pl)
		res.Exec = ExecStats{NodeVisits: b.spent()}
		return res, nil
	case MethodEnumerate:
		answers, err := evalEnumerate(t, q, opts.enumLimit(), b)
		if err != nil {
			return failedResult(pl, m, err)
		}
		res := newResult(answers, MethodEnumerate, 0, &pl)
		res.Exec = ExecStats{NodeVisits: b.spent()}
		return res, nil
	case MethodSample:
		answers, err := evalSample(t, q, opts.samples(), opts.seed(), b)
		if err != nil {
			return failedResult(pl, m, err)
		}
		res := newResult(answers, MethodSample, opts.samples(), &pl)
		res.Exec = ExecStats{NodeVisits: b.spent()}
		return res, nil
	default:
		return Result{}, fmt.Errorf("%w: unknown method %q", ErrBadOptions, m)
	}
}

// executeLadder is the unindexed auto path: try exact, fall back to
// enumeration, then sampling — the planner records which rung ran so the
// reported plan always matches the executed method.
func executeLadder(t *pxml.Tree, q *Query, opts Options, pl Plan, b *budget) (Result, error) {
	answers, e, err := evalExactPlanned(t, q, opts.LocalWorldLimit, b)
	if err == nil {
		pl.Method = MethodExact
		pl.Reason = "exact evaluation applicable"
		if e.visited > 0 {
			pl.Reason += fmt.Sprintf(" (discovery pruned %d of %d subtree visits)", e.prunedSubtrees, e.visited)
		}
		res := newResult(answers, MethodExact, 0, &pl)
		res.Exec = ExecStats{NodeVisits: b.spent()}
		return res, nil
	}
	if !errors.Is(err, ErrNotExact) {
		return failedResult(pl, MethodExact, err)
	}
	exactErr := err
	if t.WorldCount().Cmp(big.NewInt(int64(opts.enumLimit()))) <= 0 {
		answers, err := evalEnumerate(t, q, opts.enumLimit(), b)
		if err == nil {
			pl.Method = MethodEnumerate
			pl.Reason = fmt.Sprintf("%v; %s worlds fit the enumeration budget", exactErr, pl.EstimatedWorlds)
			res := newResult(answers, MethodEnumerate, 0, &pl)
			res.Exec = ExecStats{NodeVisits: b.spent()}
			return res, nil
		}
		if !errors.Is(err, worlds.ErrTooManyWorlds) {
			return failedResult(pl, MethodEnumerate, err)
		}
	}
	pl.Method = MethodSample
	pl.Reason = fmt.Sprintf("%v; %s worlds exceed the enumeration budget: Monte-Carlo sampling",
		exactErr, pl.EstimatedWorlds)
	sampled, err := evalSample(t, q, opts.samples(), opts.seed(), b)
	if err != nil {
		return failedResult(pl, MethodSample, err)
	}
	res := newResult(sampled, MethodSample, opts.samples(), &pl)
	res.Exec = ExecStats{NodeVisits: b.spent()}
	return res, nil
}
