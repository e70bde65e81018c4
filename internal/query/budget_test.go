package query_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/query"
	"repro/internal/queryindex"
)

// TestQueryContextCanceled: a context canceled before evaluation aborts
// immediately with ctx.Err() — the first budget step always checks.
func TestQueryContextCanceled(t *testing.T) {
	tree := propertyTrees(t)[0]
	idx := queryindex.Build(tree)
	q := query.MustCompile(`//movie/title`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := query.EvalIndexedCtx(ctx, tree, q, query.Options{}, idx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestQueryVisitBudget: a tiny node-visit budget aborts with
// ErrBudgetExhausted, and the result still carries the plan with
// BudgetExhausted set so explain can show what was attempted.
func TestQueryVisitBudget(t *testing.T) {
	tree := propertyTrees(t)[0]
	idx := queryindex.Build(tree)
	q := query.MustCompile(`//movie/title`)
	res, err := query.EvalIndexedCtx(context.Background(), tree, q, query.Options{MaxNodeVisits: 3}, idx)
	if !errors.Is(err, query.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if res.Plan == nil || !res.Plan.BudgetExhausted {
		t.Fatalf("plan = %+v, want BudgetExhausted", res.Plan)
	}
}

// TestQueryTimeBudget: an already-expired wall-clock budget aborts on the
// first metered step.
func TestQueryTimeBudget(t *testing.T) {
	tree := propertyTrees(t)[0]
	idx := queryindex.Build(tree)
	q := query.MustCompile(`//movie/title`)
	_, err := query.EvalIndexedCtx(context.Background(), tree, q, query.Options{TimeBudget: 1}, idx)
	if !errors.Is(err, query.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
}

// TestQueryWorkersValidation: negative query budgets are an options error,
// like every other negative knob. There is no worker-count knob: a query
// runs on one goroutine and concurrency comes from running queries side
// by side.
func TestQueryWorkersValidation(t *testing.T) {
	for _, opts := range []query.Options{
		{TimeBudget: -1},
		{MaxNodeVisits: -1},
	} {
		if err := opts.Validate(); !errors.Is(err, query.ErrBadOptions) {
			t.Fatalf("Validate(%+v) = %v, want ErrBadOptions", opts, err)
		}
	}
}

// TestSampleSeedReproducibleAcrossWorkers: a seeded MethodSample query
// returns bit-identical answers however many copies of it run at once, so
// the sampler shares no mutable state between concurrent evaluations.
func TestSampleSeedReproducibleAcrossWorkers(t *testing.T) {
	tree := propertyTrees(t)[0]
	idx := queryindex.Build(tree)
	q := query.MustCompile(`//movie/title`)
	opts := query.Options{Method: query.MethodSample, Samples: 5000, Seed: query.SeedPtr(99)}
	want, err := query.EvalIndexed(tree, q, opts, idx)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		results := make([]query.Result, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = query.EvalIndexed(tree, q, opts, idx)
			}(i)
		}
		wg.Wait()
		for i := range results {
			if errs[i] != nil {
				t.Fatalf("workers=%d #%d: %v", workers, i, errs[i])
			}
			if !reflect.DeepEqual(want.Answers, results[i].Answers) {
				t.Fatalf("workers=%d #%d: sampled answers differ from a lone run", workers, i)
			}
		}
	}
}
