package query

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"time"

	"repro/internal/pxml"
	"repro/internal/worlds"
)

// Answer is one amalgamated query answer: a distinct result value with the
// probability that at least one possible world produces it — the paper's
// ranked answers ("'Jaws' and 'Jaws 2' with an equal rank of 97%").
type Answer struct {
	Value string
	P     float64
}

// Method names the evaluation strategy that produced a result.
type Method string

const (
	// MethodExact is compositional exact evaluation.
	MethodExact Method = "exact"
	// MethodEnumerate is exhaustive world enumeration.
	MethodEnumerate Method = "enumerate"
	// MethodSample is Monte-Carlo estimation.
	MethodSample Method = "sample"
	// MethodAuto lets the planner choose the strategy (the default).
	MethodAuto Method = "auto"
)

// Result is a ranked, probability-annotated answer sequence.
type Result struct {
	Answers []Answer
	Method  Method
	// SampledWorlds is the number of Monte-Carlo samples (MethodSample).
	SampledWorlds int
	// Plan explains how the engine chose the strategy. Nil when the
	// result was produced without the planner (legacy Eval paths).
	Plan *Plan
	// Exec reports how much work the evaluation metered. Zero for legacy
	// paths and cache hits served without re-execution.
	Exec ExecStats

	// lookup is the lazily built value -> probability map behind P.
	// It is a pointer so that copies of the Result share one map build.
	lookup *valueLookup
}

// ExecStats reports how one evaluation ran. Attached to every Result
// produced by EvalIndexed.
type ExecStats struct {
	// PooledTasks and InlineTasks are always 0: evaluation is sequential.
	// They are kept only because the end-to-end benchmark reads them.
	PooledTasks, InlineTasks int64
	// NodeVisits is the budget meter reading: node visits plus enumerated
	// worlds plus drawn samples.
	NodeVisits int64
}

type valueLookup struct {
	once sync.Once
	m    map[string]float64
}

// newResult assembles a Result with a lazy value-lookup attached.
func newResult(answers []Answer, method Method, sampled int, plan *Plan) Result {
	return Result{
		Answers:       answers,
		Method:        method,
		SampledWorlds: sampled,
		Plan:          plan,
		lookup:        &valueLookup{},
	}
}

// Top returns the first n answers (fewer if there are not that many).
func (r Result) Top(n int) []Answer {
	if n > len(r.Answers) {
		n = len(r.Answers)
	}
	return r.Answers[:n]
}

// P returns the probability of a given answer value, or 0. The first
// lookup on a large answer set builds a value map once, so top-k
// post-processing that probes many values stays linear instead of
// quadratic; results constructed literally (no lookup attached) fall back
// to a linear scan.
func (r Result) P(value string) float64 {
	if r.lookup == nil {
		for _, a := range r.Answers {
			if a.Value == value {
				return a.P
			}
		}
		return 0
	}
	r.lookup.once.Do(func() {
		m := make(map[string]float64, len(r.Answers))
		for _, a := range r.Answers {
			if _, dup := m[a.Value]; !dup {
				m[a.Value] = a.P
			}
		}
		r.lookup.m = m
	})
	return r.lookup.m[value]
}

// Options configure evaluation.
type Options struct {
	// Method selects the evaluation strategy. Empty or MethodAuto lets
	// the engine choose (cost-based when an index is available, the
	// exact→enumerate→sample ladder otherwise); an explicit method is
	// used verbatim and its applicability errors surface to the caller.
	Method Method
	// LocalWorldLimit bounds per-anchor local enumeration in the exact
	// evaluator (default DefaultLocalWorldLimit). Negative values are
	// rejected by Validate.
	LocalWorldLimit int
	// EnumWorldLimit bounds full-world enumeration (default 100000).
	// Negative values are rejected by Validate.
	EnumWorldLimit int
	// Samples is the Monte-Carlo sample count (default 20000). Negative
	// values are rejected by Validate.
	Samples int
	// Seed seeds the Monte-Carlo sampler. Nil means the default seed 1;
	// pointing at any value — including 0 — requests exactly that seed.
	// Build it with SeedPtr.
	Seed *int64
	// TimeBudget bounds evaluation wall-clock time; 0 means unlimited.
	// Exhaustion surfaces as ErrBudgetExhausted with Plan.BudgetExhausted
	// set. Negative values are rejected by Validate.
	TimeBudget time.Duration
	// MaxNodeVisits bounds evaluation work, metered in node visits plus
	// enumerated worlds plus drawn samples; 0 means unlimited. Negative
	// values are rejected by Validate.
	MaxNodeVisits int64
}

// SeedPtr returns a pointer to v for Options.Seed, which is a pointer so
// that seed 0 is distinguishable from "use the default".
func SeedPtr(v int64) *int64 { return &v }

const (
	defaultEnumWorldLimit = 100000
	defaultSamples        = 20000
)

// ErrBadOptions marks option validation failures; front ends map it to a
// usage error (HTTP 400 / CLI usage message).
var ErrBadOptions = errors.New("query: invalid options")

// Validate rejects nonsensical options. Zero values always mean "use the
// default"; negative budgets used to be silently coerced to the default,
// which hid caller bugs — they are now explicit errors.
func (o Options) Validate() error {
	if o.Samples < 0 {
		return fmt.Errorf("%w: Samples must be >= 0 (0 means default %d), got %d",
			ErrBadOptions, defaultSamples, o.Samples)
	}
	if o.EnumWorldLimit < 0 {
		return fmt.Errorf("%w: EnumWorldLimit must be >= 0 (0 means default %d), got %d",
			ErrBadOptions, defaultEnumWorldLimit, o.EnumWorldLimit)
	}
	if o.LocalWorldLimit < 0 {
		return fmt.Errorf("%w: LocalWorldLimit must be >= 0 (0 means default %d), got %d",
			ErrBadOptions, DefaultLocalWorldLimit, o.LocalWorldLimit)
	}
	if o.TimeBudget < 0 {
		return fmt.Errorf("%w: TimeBudget must be >= 0 (0 means unlimited), got %s",
			ErrBadOptions, o.TimeBudget)
	}
	if o.MaxNodeVisits < 0 {
		return fmt.Errorf("%w: MaxNodeVisits must be >= 0 (0 means unlimited), got %d",
			ErrBadOptions, o.MaxNodeVisits)
	}
	switch o.Method {
	case "", MethodAuto, MethodExact, MethodEnumerate, MethodSample:
		return nil
	default:
		return fmt.Errorf("%w: unknown method %q (auto | exact | enumerate | sample)",
			ErrBadOptions, o.Method)
	}
}

func (o Options) method() Method {
	if o.Method == "" {
		return MethodAuto
	}
	return o.Method
}

func (o Options) enumLimit() int {
	if o.EnumWorldLimit > 0 {
		return o.EnumWorldLimit
	}
	return defaultEnumWorldLimit
}

func (o Options) samples() int {
	if o.Samples > 0 {
		return o.Samples
	}
	return defaultSamples
}

func (o Options) seed() int64 {
	if o.Seed != nil {
		return *o.Seed
	}
	return 1
}

// Eval answers the query without a prebuilt index: exact evaluation when
// applicable, exhaustive enumeration when the world count is small
// enough, Monte-Carlo sampling otherwise. An explicit Options.Method is
// honored verbatim. This is the reference (unplanned) engine; servers
// evaluate through EvalIndexed, which plans against a per-tree index and
// uses the value-set-accelerated exact executor.
func Eval(t *pxml.Tree, q *Query, opts Options) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	switch opts.method() {
	case MethodExact:
		answers, err := EvalExact(t, q, opts.LocalWorldLimit)
		if err != nil {
			return Result{}, err
		}
		return newResult(answers, MethodExact, 0, nil), nil
	case MethodEnumerate:
		answers, err := EvalEnumerate(t, q, opts.enumLimit())
		if err != nil {
			return Result{}, err
		}
		return newResult(answers, MethodEnumerate, 0, nil), nil
	case MethodSample:
		answers := EvalSample(t, q, opts.samples(), opts.seed())
		return newResult(answers, MethodSample, opts.samples(), nil), nil
	}
	answers, err := EvalExact(t, q, opts.LocalWorldLimit)
	if err == nil {
		return newResult(answers, MethodExact, 0, nil), nil
	}
	if !errors.Is(err, ErrNotExact) {
		return Result{}, err
	}
	if t.WorldCount().Cmp(big.NewInt(int64(opts.enumLimit()))) <= 0 {
		answers, err := EvalEnumerate(t, q, opts.enumLimit())
		if err == nil {
			return newResult(answers, MethodEnumerate, 0, nil), nil
		}
		if !errors.Is(err, worlds.ErrTooManyWorlds) {
			return Result{}, err
		}
	}
	answers = EvalSample(t, q, opts.samples(), opts.seed())
	return newResult(answers, MethodSample, opts.samples(), nil), nil
}

// EvalEnumerate computes answer probabilities by full possible-world
// enumeration — exponential, but exact and assumption-free; the ground
// truth the other evaluators are tested against.
func EvalEnumerate(t *pxml.Tree, q *Query, maxWorlds int) ([]Answer, error) {
	return evalEnumerate(t, q, maxWorlds, nil)
}

// evalEnumerate is EvalEnumerate with the budget meter the planned engine
// threads through: one step per enumerated world, so cancellation and
// budgets interrupt even exponential enumerations promptly.
func evalEnumerate(t *pxml.Tree, q *Query, maxWorlds int, b *budget) ([]Answer, error) {
	wc := t.WorldCount()
	if maxWorlds > 0 && wc.Cmp(big.NewInt(int64(maxWorlds))) > 0 {
		return nil, fmt.Errorf("%w: %s > %d", worlds.ErrTooManyWorlds, wc.String(), maxWorlds)
	}
	acc := make(map[string]float64)
	var stepErr error
	worlds.Enumerate(t, func(w worlds.World) bool {
		if stepErr = b.step(); stepErr != nil {
			return false
		}
		for v := range EvalWorld(q, w.Elements) {
			acc[v] += w.P
		}
		return true
	})
	if stepErr != nil {
		return nil, stepErr
	}
	return mapToAnswers(acc), nil
}

// sampleChunkSize fixes the sample-stream chunk layout. It is a format
// constant of sorts: changing it changes which RNG substream draws which
// sample, and therefore the (deterministic) estimates for a given seed.
const sampleChunkSize = 512

// EvalSample estimates answer probabilities from n sampled worlds using
// the given seed. The estimate's standard error is ≈ sqrt(p(1−p)/n).
func EvalSample(t *pxml.Tree, q *Query, n int, seed int64) []Answer {
	answers, _ := evalSample(t, q, n, seed, nil)
	return answers
}

// evalSample is EvalSample with the budget meter: one step per drawn
// sample. The sample stream is organized as fixed chunks of
// sampleChunkSize worlds whose RNGs derive from (seed, chunk index) via
// mixSeed; each chunk accumulates into its own map and the chunk maps
// merge in chunk order, so a given (n, seed) always yields the same
// floats.
func evalSample(t *pxml.Tree, q *Query, n int, seed int64, b *budget) ([]Answer, error) {
	if n <= 0 {
		n = defaultSamples
	}
	inc := 1 / float64(n)
	acc := make(map[string]float64)
	for ci := 0; ci*sampleChunkSize < n; ci++ {
		count := min(sampleChunkSize, n-ci*sampleChunkSize)
		rng := rand.New(rand.NewSource(mixSeed(seed, ci)))
		chunk := make(map[string]float64)
		for i := 0; i < count; i++ {
			if err := b.step(); err != nil {
				return nil, err
			}
			w := worlds.Sample(t, rng)
			for v := range EvalWorld(q, w.Elements) {
				chunk[v] += inc
			}
		}
		for v, p := range chunk {
			acc[v] += p
		}
	}
	return mapToAnswers(acc), nil
}

// mixSeed derives the RNG seed of sample chunk i from the user seed with a
// splitmix64 finalizer: chunk streams are statistically independent yet a
// pure function of (seed, chunk).
func mixSeed(seed int64, chunk int) int64 {
	z := uint64(seed) + uint64(chunk+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

func mapToAnswers(acc map[string]float64) []Answer {
	answers := make([]Answer, 0, len(acc))
	for v, p := range acc {
		if p > 1e-12 {
			answers = append(answers, Answer{Value: v, P: p})
		}
	}
	sortAnswers(answers)
	return answers
}
