package query_test

import (
	"testing"

	"repro/internal/query"
	"repro/internal/queryindex"
)

// FuzzCompileAgainstReference is the differential guard of the planned
// executor. Compile must return an error or a query, never panic; and
// whenever the planned exact executor (EvalIndexed with MethodExact)
// answers a compiled query on a corpus document, the unplanned reference
// evaluator must answer too, with the same answer set within 1e-9.
func FuzzCompileAgainstReference(f *testing.F) {
	for _, src := range propertyQueries {
		f.Add(src)
	}
	trees := propertyTrees(f)
	idxs := make([]*queryindex.Index, len(trees))
	for i, tree := range trees {
		idxs[i] = queryindex.Build(tree)
	}
	exact := query.Options{Method: query.MethodExact}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := query.Compile(src)
		if err != nil {
			return
		}
		for ti, tree := range trees {
			planned, err := query.EvalIndexed(tree, q, exact, idxs[ti])
			if err != nil {
				continue
			}
			ref, err := query.Eval(tree, q, exact)
			if err != nil {
				t.Fatalf("tree %d %s: planned exact answered, reference failed: %v", ti, src, err)
			}
			assertAnswersWithin(t, ti, src, "planned-vs-reference", planned.Answers, ref.Answers, 1e-9)
		}
	})
}
