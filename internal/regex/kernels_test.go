package regex

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// wideExpr generates a random expression over vocab with Group, Any and
// Not terms; Not is never nested, which bounds determinization cost.
func wideExpr(r *rand.Rand, vocab []string, depth int, allowNot bool) Expr {
	leaf := func() Expr {
		switch r.Intn(4) {
		case 0:
			return Any{}
		case 1:
			g := Group{Members: make([]string, 1+r.Intn(4))}
			for i := range g.Members {
				g.Members[i] = vocab[r.Intn(len(vocab))]
			}
			if r.Intn(2) == 0 {
				g.Tag = "fn"
			}
			return g
		default:
			return Sym{Name: vocab[r.Intn(len(vocab))]}
		}
	}
	if depth == 0 {
		return leaf()
	}
	switch r.Intn(6) {
	case 0:
		return Concat{wideExpr(r, vocab, depth-1, allowNot), wideExpr(r, vocab, depth-1, allowNot)}
	case 1:
		return Alt{wideExpr(r, vocab, depth-1, allowNot), wideExpr(r, vocab, depth-1, allowNot)}
	case 2:
		return Star{wideExpr(r, vocab, depth-1, allowNot)}
	case 3:
		if allowNot {
			return Not{wideExpr(r, vocab, depth-1, false)}
		}
		return Star{wideExpr(r, vocab, depth-1, allowNot)}
	default:
		return leaf()
	}
}

// TestKernelsMatchOracles is the differential test of the symbol-class
// kernels against the per-symbol constructions they replaced: on wide
// alphabets (10–90 locations, most never mentioned by the expressions,
// some interned only after the first automaton was built) Determinize,
// Intersect and Minimize must return DFAs deeply equal to the oracles'.
func TestKernelsMatchOracles(t *testing.T) {
	cases := 300
	if testing.Short() {
		cases = 60
	}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		width := 10 + r.Intn(81)
		names := make([]string, width)
		for i := range names {
			names[i] = fmt.Sprintf("l%d", i)
		}
		alpha := NewAlphabet(names)
		// The expressions mention a handful of the locations, plus a few
		// fresh names the alphabet learns only when they are compiled.
		vocab := make([]string, 0, 8)
		for i := 0; i < 5; i++ {
			vocab = append(vocab, names[r.Intn(width)])
		}
		vocab = append(vocab, fmt.Sprintf("fresh%d", r.Intn(3)))
		na, err := Compile(wideExpr(r, vocab, 4, true), alpha)
		if err != nil {
			t.Log(err)
			return false
		}
		nb, err := Compile(wideExpr(r, vocab, 4, true), alpha)
		if err != nil {
			t.Log(err)
			return false
		}
		da, db := na.Determinize(), nb.Determinize()
		same := func(what string, got, want *DFA) bool {
			if reflect.DeepEqual(got, want) {
				return true
			}
			t.Logf("seed %d: %s differs from the oracle (%d vs %d states)", seed, what, got.States, want.States)
			return false
		}
		prod := da.Intersect(db.Complement())
		return same("Determinize", da, oracleDeterminize(na)) &&
			same("Determinize", db, oracleDeterminize(nb)) &&
			same("Intersect", prod, oracleIntersect(da, db.Complement())) &&
			same("Minimize", da.Minimize(), oracleMinimize(da)) &&
			same("Minimize", prod.Minimize(), oracleMinimize(prod))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: cases}); err != nil {
		t.Fatal(err)
	}
}

// TestMinimizeDeterministic pins Minimize's state numbering: it must be a
// function of the input DFA alone. The numbering becomes product-graph
// vertex and edge order, so a run-to-run difference reorders the MIP and
// the emitted rules.
func TestMinimizeDeterministic(t *testing.T) {
	const exprs, runs = 400, 30
	for seed := int64(0); seed < exprs; seed++ {
		e := randomExpr(rand.New(rand.NewSource(seed)), 4)
		alpha := alphaFor(e, "\x00other")
		n, err := Compile(e, alpha)
		if err != nil {
			t.Fatal(err)
		}
		d := n.Determinize()
		first := d.Minimize()
		for i := 1; i < runs; i++ {
			if !reflect.DeepEqual(d.Minimize(), first) {
				t.Fatalf("%s: Minimize numbered states differently on run %d", e, i)
			}
		}
	}
}

// regionStar is a tenant-style path expression: (l0|…|l30)* over a
// 150-location alphabet, anchored between two of its members.
func regionStar() (*NFA, *NFA) {
	names := make([]string, 150)
	for i := range names {
		names[i] = fmt.Sprintf("l%d", i)
	}
	alpha := NewAlphabet(names)
	var body Expr = Sym{Name: names[0]}
	for i := 1; i < 31; i++ {
		body = Alt{body, Sym{Name: names[i*4]}}
	}
	region, err := Compile(Star{X: body}, alpha)
	if err != nil {
		panic(err)
	}
	anchor, err := Compile(ConcatAll(Sym{Name: names[0]}, Star{X: Any{}}, Sym{Name: names[120]}), alpha)
	if err != nil {
		panic(err)
	}
	return region, anchor
}

func BenchmarkDeterminizeRegion(b *testing.B) {
	region, _ := regionStar()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		region.Determinize()
	}
}

func BenchmarkMinimizeProduct(b *testing.B) {
	region, anchor := regionStar()
	product := region.Determinize().Intersect(anchor.Determinize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		product.Minimize()
	}
}
