package pred

import "fmt"

// maxExpandCubes bounds classifier expansion; policy predicates are
// shallow, so hitting this indicates a pathological input.
const maxExpandCubes = 1 << 16

// ErrExpansionTooLarge reports that a classifier expansion exceeded its
// cube budget. Callers that can fall back to a coarser classification
// match it with errors.Is, also through wrapping layers such as ternary.
var ErrExpansionTooLarge = fmt.Errorf("pred: classifier expansion too large (more than %d cubes)", maxExpandCubes)

// PositiveCubes expands p into disjunctive normal form and returns the
// positive literals of each satisfiable cube. It is the classifier
// expansion code generation uses to turn a statement predicate into
// match rules: under the first-match priority ordering the compiler
// emits (statements earlier in the policy shadow later ones), negated
// literals are enforced by the higher-priority rules of the statements
// that own the negated values, so each rule needs only the positive
// tests. Unsatisfiable cubes are dropped; a tautological predicate
// yields one empty cube. A DNF of more than maxExpandCubes cubes fails
// with ErrExpansionTooLarge.
func PositiveCubes(p Pred) ([][]Test, error) {
	// Fast path: a pure conjunction of positive tests (the shape of
	// nearly every compiled statement predicate) is its own single cube;
	// skip the NNF conversion and assignment machinery entirely.
	if ts, ok := conjTests(p, make([]Test, 0, 4)); ok {
		for i, a := range ts {
			for _, b := range ts[:i] {
				if a.Field == b.Field && a.Value != b.Value {
					return nil, nil // contradictory pins: no satisfiable cube
				}
			}
		}
		return [][]Test{dedupTests(ts)}, nil
	}
	n, err := toNNF(p, false)
	if err != nil {
		return nil, err
	}
	// Count before building: a doomed expansion (the totality default's
	// negated disjunction multiplies out to 2^n cubes) then fails after
	// one allocation-free walk instead of materializing the first
	// maxExpandCubes cubes.
	if _, err := countExpand(n); err != nil {
		return nil, err
	}
	cubes, err := expandCubes(n)
	if err != nil {
		return nil, err
	}
	var out [][]Test
	for _, c := range cubes {
		if !cubeConsistent(c) {
			continue
		}
		var pos []Test
		for _, l := range c {
			if !l.neg {
				pos = append(pos, Test{Field: l.field, Value: l.value})
			}
		}
		out = append(out, dedupTests(pos))
	}
	return out, nil
}

// EstimateCubes bounds the weighted number of DNF cubes of p — the
// classifier rows PositiveCubes would materialize — without materializing
// them. The weight function prices one literal (a positive or negated
// test); the result is Σ over cubes of Π over the cube's literals of
// weight(literal), computed structurally (And multiplies, Or adds), so
// the cost is linear in the predicate, not in the cube count. A nil
// weight prices every literal at 1, making the result the plain cube
// count. The estimate is an upper bound: unsatisfiable cubes, which
// PositiveCubes drops, are still counted, and duplicate literals still
// multiply. Ternary expansion uses it to price a classification rule's
// TCAM footprint (a range literal weighs its prefix count) before — or
// instead of — building the rows.
func EstimateCubes(p Pred, weight func(t Test, negated bool) float64) (float64, error) {
	n, err := toNNF(p, false)
	if err != nil {
		return 0, err
	}
	if weight == nil {
		weight = func(Test, bool) float64 { return 1 }
	}
	return countCubes(n, weight), nil
}

func countCubes(n nnf, weight func(Test, bool) float64) float64 {
	switch x := n.(type) {
	case nnfTrue:
		return 1
	case nnfFalse:
		return 0
	case nnfLit:
		return weight(Test{Field: x.field, Value: x.value}, x.neg)
	case nnfAnd:
		out := 1.0
		for _, part := range x.parts {
			out *= countCubes(part, weight)
		}
		return out
	case nnfOr:
		out := 0.0
		for _, part := range x.parts {
			out += countCubes(part, weight)
		}
		return out
	default:
		return 0
	}
}

// conjTests collects the tests of a conjunction of positive atoms into
// acc, reporting false if p contains any other connective.
func conjTests(p Pred, acc []Test) ([]Test, bool) {
	switch x := p.(type) {
	case TruePred:
		return acc, true
	case Test:
		return append(acc, x), true
	case And:
		acc, ok := conjTests(x.L, acc)
		if !ok {
			return nil, false
		}
		return conjTests(x.R, acc)
	default:
		return nil, false
	}
}

func expandCubes(n nnf) ([][]nnfLit, error) {
	switch x := n.(type) {
	case nnfTrue:
		return [][]nnfLit{{}}, nil
	case nnfFalse:
		return nil, nil
	case nnfLit:
		return [][]nnfLit{{x}}, nil
	case nnfAnd:
		out := [][]nnfLit{{}}
		for _, part := range x.parts {
			sub, err := expandCubes(part)
			if err != nil {
				return nil, err
			}
			if len(out)*len(sub) > maxExpandCubes {
				return nil, ErrExpansionTooLarge
			}
			var next [][]nnfLit
			for _, a := range out {
				for _, b := range sub {
					cube := make([]nnfLit, 0, len(a)+len(b))
					cube = append(cube, a...)
					cube = append(cube, b...)
					next = append(next, cube)
				}
			}
			out = next
		}
		return out, nil
	case nnfOr:
		var out [][]nnfLit
		for _, part := range x.parts {
			sub, err := expandCubes(part)
			if err != nil {
				return nil, err
			}
			if len(out)+len(sub) > maxExpandCubes {
				return nil, ErrExpansionTooLarge
			}
			out = append(out, sub...)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("pred: unknown NNF node %T", n)
	}
}

// countExpand returns len(expandCubes(n)) without building the cubes. It
// applies expandCubes' budget checks to the same counts in the same
// order, so it fails exactly when expandCubes would.
func countExpand(n nnf) (int, error) {
	switch x := n.(type) {
	case nnfTrue, nnfLit:
		return 1, nil
	case nnfFalse:
		return 0, nil
	case nnfAnd:
		out := 1
		for _, part := range x.parts {
			sub, err := countExpand(part)
			if err != nil {
				return 0, err
			}
			if out*sub > maxExpandCubes {
				return 0, ErrExpansionTooLarge
			}
			out *= sub
		}
		return out, nil
	case nnfOr:
		out := 0
		for _, part := range x.parts {
			sub, err := countExpand(part)
			if err != nil {
				return 0, err
			}
			if out+sub > maxExpandCubes {
				return 0, ErrExpansionTooLarge
			}
			out += sub
		}
		return out, nil
	default:
		return 0, fmt.Errorf("pred: unknown NNF node %T", n)
	}
}

// cubeConsistent checks a literal conjunction the same way the
// satisfiability search does, without the search machinery.
func cubeConsistent(c []nnfLit) bool {
	a := newAssignment()
	for _, l := range c {
		ok, _ := a.bind(l)
		if !ok {
			return false
		}
	}
	return true
}

func dedupTests(ts []Test) []Test {
	seen := make(map[Test]bool, len(ts))
	out := ts[:0]
	for _, t := range ts {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}
